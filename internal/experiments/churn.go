package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"diffusion"
	"diffusion/internal/stats"
)

// This file is the churn experiment: the measured form of the paper's
// robustness claim (sections 3.1 and 6.4) that diffusion self-heals after
// node death — periodic exploratory data re-discovers routes and
// reinforcement re-converges onto a working path. Two scenarios run on the
// Figure 7 testbed:
//
//   - Relay kill: establish the surveillance flow, locate the reinforced
//     relay next to the sink by walking the reinforced gradient chain, and
//     crash it mid-run. Measured: time-to-repair, delivery before/after,
//     and the repair traffic overhead in bytes.
//   - Random churn: relays fail and recover under an MTBF/MTTR process
//     while the flow runs. Measured: delivery ratio and traffic cost per
//     delivered event across churn intensities.

// ChurnConfig parameterizes both scenarios.
type ChurnConfig struct {
	// Seeds are the experiment repetitions (≥3 for confidence intervals).
	Seeds []int64
	// Duration is the per-run virtual time.
	Duration time.Duration
	// KillAt is when the reinforced relay is crashed (relay-kill scenario).
	KillAt time.Duration
	// EventInterval is the per-source event period (paper: 6 s).
	EventInterval time.Duration
	// ExploratoryInterval is the exploratory-data period; the repair bound
	// the paper's cadence argument implies is two of these.
	ExploratoryInterval time.Duration
	// PayloadBytes pads events to the paper's 112-byte size.
	PayloadBytes int
	// ChurnPoints are the (MTBF, MTTR) settings of the random-churn sweep.
	ChurnPoints []ChurnPoint
	// TraceSampling enables causal flight-path tracing at this sampling
	// rate on traced runs (see NetworkConfig.TraceSampling). Non-zero
	// sampling consumes extra per-origination random draws, so a sampled
	// run's jitter stream differs from an unsampled one's.
	TraceSampling float64
}

// ChurnPoint is one setting of the random-churn process.
type ChurnPoint struct {
	MTBF, MTTR time.Duration
}

// DefaultChurn returns the standard configuration: 30-minute runs, relay
// kill at minute 10, the paper's 6-second events and 60-second exploratory
// cadence, and a churn sweep from gentle to brutal.
func DefaultChurn() ChurnConfig {
	return ChurnConfig{
		Seeds:               []int64{1, 2, 3, 4, 5},
		Duration:            30 * time.Minute,
		KillAt:              10 * time.Minute,
		EventInterval:       6 * time.Second,
		ExploratoryInterval: 60 * time.Second,
		PayloadBytes:        50,
		ChurnPoints: []ChurnPoint{
			{MTBF: 10 * time.Minute, MTTR: 30 * time.Second},
			{MTBF: 5 * time.Minute, MTTR: 30 * time.Second},
			{MTBF: 2 * time.Minute, MTTR: 30 * time.Second},
			{MTBF: 2 * time.Minute, MTTR: 2 * time.Minute},
		},
	}
}

// RelayKillRun is one seed's outcome of the relay-kill scenario.
type RelayKillRun struct {
	Seed   int64
	Victim uint32
	// Repaired reports whether any post-kill event was delivered.
	Repaired bool
	// TimeToRepair is the gap between the kill and the first delivery of
	// an event originated after it.
	TimeToRepair time.Duration
	// DeliveryPre and DeliveryPost are delivery ratios before the kill and
	// from the kill to the end of the run.
	DeliveryPre, DeliveryPost float64
	// OverheadBytes is the network-wide traffic sent between the kill and
	// the repair in excess of the pre-kill steady-state rate — what the
	// repair itself cost.
	OverheadBytes float64
}

// RelayKillResult aggregates the scenario across seeds.
type RelayKillResult struct {
	Runs     []RelayKillRun
	Repaired int
	// TTRSeconds, DeliveryPre, DeliveryPost and OverheadBytes summarize
	// the repaired runs with 95% confidence intervals.
	TTRSeconds    stats.Summary
	DeliveryPre   stats.Summary
	DeliveryPost  stats.Summary
	OverheadBytes stats.Summary
	// RepairBound is the cadence argument's bound: two exploratory
	// intervals.
	RepairBound time.Duration
}

// RunRelayKill executes the relay-kill scenario across the configured
// seeds.
func RunRelayKill(cfg ChurnConfig) RelayKillResult {
	res := RelayKillResult{RepairBound: 2 * cfg.ExploratoryInterval}
	var ttr, pre, post, overhead []float64
	for _, seed := range cfg.Seeds {
		run, _, _ := relayKill(cfg, seed, false)
		res.Runs = append(res.Runs, run)
		pre = append(pre, run.DeliveryPre)
		post = append(post, run.DeliveryPost)
		if run.Repaired {
			res.Repaired++
			ttr = append(ttr, run.TimeToRepair.Seconds())
			overhead = append(overhead, run.OverheadBytes)
		}
	}
	res.TTRSeconds = stats.Summarize(ttr)
	res.DeliveryPre = stats.Summarize(pre)
	res.DeliveryPost = stats.Summarize(post)
	res.OverheadBytes = stats.Summarize(overhead)
	return res
}

// churnFlow is both scenarios' workload: one source, node 13, 4-5 hops from
// the testbed sink.
func churnFlow(cfg ChurnConfig, seed int64) flow {
	return flow{
		cfg:      diffusion.NetworkConfig{Seed: seed, ExploratoryInterval: cfg.ExploratoryInterval},
		sources:  diffusion.TestbedSources()[3:],
		interval: cfg.EventInterval,
		payload:  make([]byte, cfg.PayloadBytes),
	}
}

// RunRelayKillTraced runs one relay-kill seed with a full message trace
// kept and returns the run outcome, the trace (fault script set, ready for
// export), and the end-of-run metrics snapshot. A trace only records what
// the nodes do and draws no randomness, so with sampling off the
// returned RelayKillRun is bit-identical to the untraced RunRelayKill run
// for the same seed.
func RunRelayKillTraced(cfg ChurnConfig, seed int64) (RelayKillRun, *diffusion.Trace, diffusion.MetricsSnapshot) {
	return relayKill(cfg, seed, true)
}

// relayKill is the shared implementation: warm up the reinforced path,
// kill the relay the sink reinforces, and watch the repair. traced keeps a
// trace and takes the closing metrics snapshot.
func relayKill(cfg ChurnConfig, seed int64, traced bool) (RelayKillRun, *diffusion.Trace, diffusion.MetricsSnapshot) {
	run := RelayKillRun{Seed: seed}
	f := churnFlow(cfg, seed)
	source := f.sources[0]
	// samples holds total diffusion traffic at every event tick, so the
	// repair window's byte cost can be read off afterwards.
	type sample struct {
		at    time.Duration
		bytes int
	}
	var samples []sample
	f.tick = func(net *diffusion.Network) {
		samples = append(samples, sample{net.Now(), net.TotalDiffusionBytes()})
	}
	var tr *diffusion.Trace
	if traced {
		f.cfg.TraceSampling = cfg.TraceSampling
		f.setup = func(net *diffusion.Network) { tr = net.NewTrace(0) }
	}
	r := f.start()
	net := r.net

	var killSeq int32
	net.After(cfg.KillAt, func() {
		path := net.ReinforcedPath(diffusion.TestbedSink, surveillanceInterest(), 0)
		// The victim is the first reinforced-path node that is neither the
		// sink nor the source: the relay whose death severs delivery.
		for _, id := range path[1:] {
			if id != source {
				run.Victim = id
				break
			}
		}
		if run.Victim == 0 {
			return // no reinforced relay (path never converged); no kill
		}
		killSeq = int32(len(r.sent))
		// Scheduled now, the kill fires at once, and a trace's header
		// names it.
		kill := diffusion.FaultEvent{At: net.Now(), Kind: diffusion.FaultNodeDown, Node: run.Victim}
		if err := net.ScheduleFaults(kill.String()); err != nil {
			panic(err)
		}
	})
	net.Run(cfg.Duration)
	var snap diffusion.MetricsSnapshot
	if traced {
		snap = net.MetricsSnapshot()
	}

	// Delivery ratios on either side of the kill.
	preSent, preGot := 0, 0
	for _, at := range r.sent {
		if at < cfg.KillAt {
			preSent++
		}
	}
	for _, a := range r.got[0] {
		if r.sent[a.seq-1] < cfg.KillAt {
			preGot++
		}
	}
	if preSent > 0 {
		run.DeliveryPre = float64(preGot) / float64(preSent)
	}
	if postSent := len(r.sent) - preSent; postSent > 0 {
		run.DeliveryPost = float64(len(r.got[0])-preGot) / float64(postSent)
	}
	if run.Victim == 0 {
		return run, tr, snap
	}

	// Time to repair: first delivery of an event originated after the kill.
	repairAt := time.Duration(-1)
	for _, a := range r.got[0] {
		if a.seq > killSeq {
			repairAt = a.at
			break
		}
	}
	if repairAt < 0 {
		return run, tr, snap
	}
	run.Repaired = true
	run.TimeToRepair = repairAt - cfg.KillAt

	// Repair overhead: bytes sent during [kill, repair] beyond what the
	// pre-kill steady-state rate would have sent in the same span.
	bytesAt := func(at time.Duration) int {
		i := sort.Search(len(samples), func(i int) bool { return samples[i].at >= at })
		if i == len(samples) {
			return samples[len(samples)-1].bytes
		}
		return samples[i].bytes
	}
	window := 2 * cfg.ExploratoryInterval
	preWindow := cfg.KillAt - window
	if preWindow < 0 {
		preWindow = 0
	}
	preRate := float64(bytesAt(cfg.KillAt)-bytesAt(preWindow)) / (cfg.KillAt - preWindow).Seconds()
	spent := float64(bytesAt(repairAt) - bytesAt(cfg.KillAt))
	run.OverheadBytes = spent - preRate*run.TimeToRepair.Seconds()
	return run, tr, snap
}

// ChurnSweepPoint is one (MTBF, MTTR) row of the random-churn sweep.
type ChurnSweepPoint struct {
	MTBF, MTTR time.Duration
	// Delivery is the distinct-event delivery ratio over the churn window.
	Delivery stats.Summary
	// BytesPerEvent is traffic normalized per distinct delivered event.
	BytesPerEvent stats.Summary
	// Faults is the mean number of node crashes injected per run.
	Faults stats.Summary
}

// RunChurnSweep measures delivery under MTBF/MTTR-driven relay churn. All
// relays (every node but the sink and the source) churn; the endpoints
// stay up so the measurement is of the network's repair, not the
// workload's absence.
func RunChurnSweep(cfg ChurnConfig) []ChurnSweepPoint {
	var out []ChurnSweepPoint
	for _, p := range cfg.ChurnPoints {
		s := overSeeds(cfg.Seeds, func(seed int64) []float64 { return churnOnce(cfg, p, seed) })
		out = append(out, ChurnSweepPoint{MTBF: p.MTBF, MTTR: p.MTTR, Delivery: s[0], BytesPerEvent: s[1], Faults: s[2]})
	}
	return out
}

// churnOnce returns (delivery ratio, bytes per delivered event, node
// crashes) for one seed at one churn point.
func churnOnce(cfg ChurnConfig, p ChurnPoint, seed int64) []float64 {
	f := churnFlow(cfg, seed)
	r := f.start()
	var relays []uint32
	for _, id := range r.net.IDs() {
		if id != diffusion.TestbedSink && id != f.sources[0] {
			relays = append(relays, id)
		}
	}
	inj := r.net.NewFaultInjector()
	// Let the flow establish before the first crash; end the churn early
	// enough that the final delivery ratio reflects repair, not luck.
	inj.Churn(diffusion.ChurnConfig{
		Start: min(2*time.Minute, cfg.Duration/4),
		Stop:  cfg.Duration,
		MTBF:  p.MTBF,
		MTTR:  p.MTTR,
		Nodes: relays,
	})
	r.net.Run(cfg.Duration)
	return []float64{r.delivery(0), r.bytesPerEvent(), float64(inj.Summarize()[diffusion.FaultNodeDown])}
}

// PrintChurn renders both scenarios.
func PrintChurn(w io.Writer, kill RelayKillResult, sweep []ChurnSweepPoint) {
	fmt.Fprintln(w, "Churn: diffusion path repair under faults (Fig-7 topology)")
	fmt.Fprintf(w, "relay kill: reinforced relay crashed mid-run (repair bound = 2 exploratory intervals = %v)\n",
		kill.RepairBound)
	fmt.Fprintf(w, "  repaired             %d/%d runs\n", kill.Repaired, len(kill.Runs))
	fmt.Fprintf(w, "  time-to-repair       %6.1f s ± %.1f (n=%d)\n",
		kill.TTRSeconds.Mean, kill.TTRSeconds.CI95, kill.TTRSeconds.N)
	fmt.Fprintf(w, "  delivery pre-kill    %5.1f%% ± %.1f%%\n",
		100*kill.DeliveryPre.Mean, 100*kill.DeliveryPre.CI95)
	fmt.Fprintf(w, "  delivery post-kill   %5.1f%% ± %.1f%%\n",
		100*kill.DeliveryPost.Mean, 100*kill.DeliveryPost.CI95)
	fmt.Fprintf(w, "  repair overhead      %6.0f B ± %.0f\n",
		kill.OverheadBytes.Mean, kill.OverheadBytes.CI95)
	fmt.Fprintln(w, "random relay churn:")
	fmt.Fprintln(w, "  MTBF     MTTR     delivery          crashes/run   B/event")
	for _, p := range sweep {
		fmt.Fprintf(w, "  %-8v %-8v %5.1f%% ± %4.1f%%   %5.1f         %7.0f\n",
			p.MTBF, p.MTTR, 100*p.Delivery.Mean, 100*p.Delivery.CI95,
			p.Faults.Mean, p.BytesPerEvent.Mean)
	}
}
