package experiments

import (
	"fmt"
	"io"
	"time"

	"diffusion"
	"diffusion/internal/stats"
	"diffusion/internal/topo"
)

// This file is the ferry experiment: directed diffusion under scheduled
// disconnection, the mobile/DTN regime the paper's soft-state repair was
// never built for. Two island clusters sit beyond radio range of each
// other; the only path between them is a "message ferry" relay whose
// links alternate — it is in contact with exactly one island at a time,
// and each absence outlasts the gradient lifetime, so every soft-state
// trace of the far side decays before the ferry returns. Baseline
// diffusion loses everything originated while the ferry faces the wrong
// way: data reaches the ferry (or the source-side edge) and is dropped
// for want of a gradient. With custody transfer the same nodes park that
// data in bounded custody queues and replay it at the next contact,
// store-and-carry style, so delivery approaches 100% at the cost of
// latency — one contact period in the worst case.
//
// The topology is a 5-node line, sink 1 - 2 - ferry 3 - 4 - source 5,
// with 10 m spacing (adjacent nodes inside SolidRange, two-hop pairs
// beyond MaxRange). Ferry motion is a topo.Trajectory — a cyclic
// shuttle dwelling at a dock off each island's edge relay — and the
// contact schedule topo.Contacts derives from it drives the link layer:
// a window opening is a link-up with NeighborRecovered on both
// endpoints, a closing is a link-down with NeighborDead, exactly the
// verdicts a live deployment's failure detector would reach. The dwell
// and crossing times leave the contact windows disjoint (the islands
// are never bridged) and make each absence outlast the gradient
// lifetime. The schedule, not radio luck, decides connectivity, which
// keeps the scenario deterministic and lets the same seed compare
// custody against baseline message-for-message.

// FerryConfig parameterizes the ferry scenario.
type FerryConfig struct {
	// Seeds are the experiment repetitions.
	Seeds []int64
	// Duration is the per-run virtual time.
	Duration time.Duration
	// ContactPeriod is one full ferry cycle: half at the source island,
	// half at the sink island. Each absence must outlast the gradient
	// lifetime for the scenario to be a real DTN regime.
	ContactPeriod time.Duration
	// EventInterval is the source's data period.
	EventInterval time.Duration
	// InterestInterval refreshes interests (gradient lifetime is 2.5×).
	InterestInterval time.Duration
	// CustodyLimit bounds the custody queues in the custody arm.
	CustodyLimit int
}

// DefaultFerry returns the standard configuration: 20-minute runs, a
// 60-second ferry cycle against a 25-second gradient lifetime (10 s
// interests), an event every 2 seconds.
func DefaultFerry() FerryConfig {
	return FerryConfig{
		Seeds:            []int64{1, 2, 3},
		Duration:         20 * time.Minute,
		ContactPeriod:    60 * time.Second,
		EventInterval:    2 * time.Second,
		InterestInterval: 10 * time.Second,
		CustodyLimit:     2048,
	}
}

// FerryRun is one seed's outcome of one arm.
type FerryRun struct {
	Seed       int64
	Custody    bool
	Sent       int
	Delivered  int // unique sequences that reached the sink
	Duplicates int // deliveries beyond the first per sequence
	// Delivery is Delivered/Sent.
	Delivery float64
	// MeanLatency averages first-delivery latency over delivered events;
	// custody trades latency (up to a contact period) for completeness.
	MeanLatency time.Duration
	// Captured counts custody admissions across the network (0 in the
	// baseline arm).
	Captured int
}

// FerryResult aggregates both arms across seeds.
type FerryResult struct {
	Config   FerryConfig
	Baseline []FerryRun
	Custody  []FerryRun
	// DeliveryBaseline and DeliveryCustody summarize the arms' delivery
	// ratios with 95% confidence intervals.
	DeliveryBaseline stats.Summary
	DeliveryCustody  stats.Summary
	LatencyBaseline  stats.Summary // seconds
	LatencyCustody   stats.Summary
}

// RunFerry executes both arms across the configured seeds.
func RunFerry(cfg FerryConfig) FerryResult {
	res := FerryResult{Config: cfg}
	s := overSeeds(cfg.Seeds, func(seed int64) []float64 {
		base, cust := runFerryOnce(cfg, seed, false), runFerryOnce(cfg, seed, true)
		res.Baseline = append(res.Baseline, base)
		res.Custody = append(res.Custody, cust)
		return []float64{base.Delivery, cust.Delivery, base.MeanLatency.Seconds(), cust.MeanLatency.Seconds()}
	})
	res.DeliveryBaseline, res.DeliveryCustody = s[0], s[1]
	res.LatencyBaseline, res.LatencyCustody = s[2], s[3]
	return res
}

// Ferry topology constants: sink 1 - edgeA 2 - ferry 3 - edgeB 4 - source 5.
const (
	ferrySink   = 1
	ferryEdgeA  = 2
	ferryNode   = 3
	ferryEdgeB  = 4
	ferrySource = 5
)

// Ferry motion constants. The docks sit 4 m off each island's edge relay
// (nodes 2 and 4 at x = 10 and 30) — inside the contact radius of that
// relay, outside everything else's. The contact radius is deliberately
// tighter than the radio's 13.5 m solid range: custody hand-off wants
// solid contact, and a 9 m radius keeps the two relays' contact windows
// disjoint while the ferry crosses between docks.
const (
	ferryContactRadius = 9.0
	ferryDockA         = 14.0 // dwell point for island A (sink side)
	ferryDockB         = 26.0 // dwell point for island B (source side)
	ferryContactStep   = 250 * time.Millisecond
)

// ferryShuttle returns the ferry's cyclic trajectory: dwell at the
// source-island dock, cross the 12 m gap in cycle/12 (2.4 m/s at the
// default 60 s cycle), dwell at the sink-island dock, cross back.
func ferryShuttle(cycle time.Duration) *topo.Trajectory {
	travel := cycle / 12
	dwell := cycle/2 - travel
	return &topo.Trajectory{
		Cyclic: true,
		Waypoints: []topo.Waypoint{
			{T: 0, X: ferryDockB},
			{T: dwell, X: ferryDockB},
			{T: dwell + travel, X: ferryDockA},
			{T: 2*dwell + travel, X: ferryDockA},
			{T: cycle, X: ferryDockB},
		},
	}
}

// runFerryOnce runs one seed of one arm.
func runFerryOnce(cfg FerryConfig, seed int64, withCustody bool) FerryRun {
	// Stop originating two contact periods before the end: the last
	// events may need a full crossing to reach the ferry-side custodian
	// and another for the ferry to face the sink again.
	until := cfg.Duration - 2*cfg.ContactPeriod
	if until == 0 {
		until = -1 // as for any shorter run: send nothing
	}
	r := flow{
		cfg: diffusion.NetworkConfig{
			Seed:             seed,
			Topology:         diffusion.LineTopology(5, 10),
			InterestInterval: cfg.InterestInterval,
			Custody:          withCustody,
			CustodyLimit:     cfg.CustodyLimit,
			// Deduplication must span a full disconnection, or a replayed
			// message whose ID aged out would double-deliver.
			SeenTTL: 4 * cfg.ContactPeriod,
		},
		sinks:    []uint32{ferrySink},
		sources:  []uint32{ferrySource},
		interval: cfg.EventInterval,
		until:    until,
	}.start()
	net := r.net

	// The ferry schedule: contact windows derived from the shuttle
	// trajectory. A window opening brings the link up with
	// NeighborRecovered on both endpoints (re-offering cached interests
	// and replaying custody); a closing takes it down with NeighborDead,
	// as a live failure detector would conclude. The ferry starts docked
	// at the source island; the first crossing ferries the initial
	// interests over.
	setLink := func(peer uint32, up bool) {
		net.SetLinkDown(ferryNode, peer, !up)
		net.SetLinkDown(peer, ferryNode, !up)
		if up {
			net.Node(ferryNode).NeighborRecovered(peer)
			net.Node(peer).NeighborRecovered(ferryNode)
		} else {
			net.Node(ferryNode).NeighborDead(peer)
			net.Node(peer).NeighborDead(ferryNode)
		}
	}
	setLink(ferryEdgeA, false)
	setLink(ferryEdgeB, false)
	contacts := diffusion.LineTopology(5, 10).Contacts(
		ferryShuttle(cfg.ContactPeriod),
		[]uint32{ferryEdgeA, ferryEdgeB},
		ferryContactRadius, cfg.Duration, ferryContactStep)
	for _, c := range contacts {
		if c.From == 0 {
			setLink(c.Peer, true)
		} else {
			net.After(c.From, func() { setLink(c.Peer, true) })
		}
		if c.To < cfg.Duration {
			net.After(c.To, func() { setLink(c.Peer, false) })
		}
	}

	net.Run(cfg.Duration)

	run := FerryRun{Seed: seed, Custody: withCustody, Sent: len(r.sent), Delivered: len(r.got[0]), Duplicates: r.dups}
	run.Delivery = r.delivery(0)
	var lat time.Duration
	for _, a := range r.got[0] {
		lat += a.at - r.sent[a.seq-1]
	}
	if run.Delivered > 0 {
		run.MeanLatency = lat / time.Duration(run.Delivered)
	}
	for _, n := range net.Nodes() {
		run.Captured += n.Stats.CustodyCaptured
	}
	return run
}

// PrintFerry renders the scenario.
func PrintFerry(w io.Writer, res FerryResult) {
	cfg := res.Config
	fmt.Fprintln(w, "Ferry: custody transfer vs baseline under scheduled disconnection")
	fmt.Fprintf(w, "line 1(sink)-2-3(ferry)-4-5(source); ferry shuttles between islands on a %v cycle; gradient lifetime %v\n",
		cfg.ContactPeriod, 5*cfg.InterestInterval/2)
	fmt.Fprintf(w, "  baseline delivery   %5.1f%% ± %.1f%%   latency %5.1f s\n",
		100*res.DeliveryBaseline.Mean, 100*res.DeliveryBaseline.CI95,
		res.LatencyBaseline.Mean)
	fmt.Fprintf(w, "  custody delivery    %5.1f%% ± %.1f%%   latency %5.1f s\n",
		100*res.DeliveryCustody.Mean, 100*res.DeliveryCustody.CI95,
		res.LatencyCustody.Mean)
	for i := range res.Custody {
		b, c := res.Baseline[i], res.Custody[i]
		fmt.Fprintf(w, "  seed %-3d  baseline %4d/%4d   custody %4d/%4d (dup %d, captured %d)\n",
			b.Seed, b.Delivered, b.Sent, c.Delivered, c.Sent, c.Duplicates, c.Captured)
	}
}
