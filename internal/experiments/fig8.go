package experiments

import (
	"fmt"
	"io"
	"time"

	"diffusion"
	"diffusion/internal/stats"
)

// Fig8Config parameterizes the aggregation experiment (paper Figure 8):
// a sink at testbed node 28, one to four sources at nodes 25, 16, 22 and
// 13 generating synchronized 112-byte events every 6 seconds, with and
// without duplicate-suppression filters on every node, for five 30-minute
// runs per point.
type Fig8Config struct {
	// Seeds are the experiment repetitions (paper: five runs).
	Seeds []int64
	// Duration is the per-run virtual time (paper: 30 minutes).
	Duration time.Duration
	// MaxSources sweeps 1..MaxSources sources (paper: 4).
	MaxSources int
	// EventInterval is the per-source event period (paper: 6 s).
	EventInterval time.Duration
	// PayloadBytes pads each event so the diffusion message reaches the
	// paper's 112 bytes.
	PayloadBytes int
	// ExploratoryEvery overrides the 1-in-10 exploratory cadence
	// (ablations); zero keeps the default.
	ExploratoryEvery int
	// Radio overrides the channel parameters (ablations); nil keeps the
	// testbed default.
	Radio *diffusion.RadioParams
	// DisableNegRF turns off negative reinforcement (ablation).
	DisableNegRF bool
}

// DefaultFig8 returns the paper's configuration.
func DefaultFig8() Fig8Config {
	return Fig8Config{
		Seeds:         []int64{1, 2, 3, 4, 5},
		Duration:      30 * time.Minute,
		MaxSources:    4,
		EventInterval: 6 * time.Second,
		PayloadBytes:  50,
	}
}

// Fig8Point is one point of the Figure 8 series.
type Fig8Point struct {
	Sources     int
	Suppression bool
	// BytesPerEvent is the figure's y-axis: bytes sent from all diffusion
	// modules normalized to the number of distinct events received.
	BytesPerEvent stats.Summary
	// DeliveryRate is the fraction of distinct events that reached the
	// sink (the paper reports 55-80%).
	DeliveryRate stats.Summary
}

// RunFig8 runs the full sweep: sources 1..MaxSources, with and without
// suppression.
func RunFig8(cfg Fig8Config) []Fig8Point {
	var out []Fig8Point
	for _, suppression := range []bool{true, false} {
		for s := 1; s <= cfg.MaxSources; s++ {
			out = append(out, RunFig8Point(cfg, s, suppression))
		}
	}
	return out
}

// RunFig8Point runs one point of the sweep (all seeds at one source count
// and suppression setting).
func RunFig8Point(cfg Fig8Config, sources int, suppression bool) Fig8Point {
	s := overSeeds(cfg.Seeds, func(seed int64) []float64 {
		r := fig8Flow(cfg, sources, suppression, seed).run(cfg.Duration)
		return []float64{r.bytesPerEvent(), r.delivery(0)}
	})
	return Fig8Point{Sources: sources, Suppression: suppression, BytesPerEvent: s[0], DeliveryRate: s[1]}
}

// fig8Flow is one Figure 8 run: the first sources testbed sources, and
// with suppression the paper's filter on every node ("aggregation filters
// that pass the first unique event and suppress subsequent events with
// identical sequence numbers").
func fig8Flow(cfg Fig8Config, sources int, suppression bool, seed int64) flow {
	f := flow{
		cfg: diffusion.NetworkConfig{
			Seed:                         seed,
			ExploratoryEvery:             cfg.ExploratoryEvery,
			Radio:                        cfg.Radio,
			DisableNegativeReinforcement: cfg.DisableNegRF,
		},
		sources:  diffusion.TestbedSources()[:sources],
		interval: cfg.EventInterval,
		payload:  make([]byte, cfg.PayloadBytes),
	}
	if suppression {
		f.setup = suppressAll
	}
	return f
}

// suppressAll installs a duplicate-suppression filter on every node.
func suppressAll(net *diffusion.Network) {
	for _, id := range net.IDs() {
		net.NewSuppression(net.Node(id), diffusion.SuppressionOptions{})
	}
}

// PrintFig8 renders the series as the paper's figure rows.
func PrintFig8(w io.Writer, points []Fig8Point) {
	fmt.Fprintln(w, "Figure 8: bytes sent from all diffusion modules per distinct event")
	fmt.Fprintln(w, "sources  suppression      B/event            delivery")
	for _, p := range points {
		mode := "without"
		if p.Suppression {
			mode = "with   "
		}
		fmt.Fprintf(w, "%7d  %s      %9.0f ± %5.0f   %5.1f%% ± %4.1f%%\n",
			p.Sources, mode, p.BytesPerEvent.Mean, p.BytesPerEvent.CI95,
			100*p.DeliveryRate.Mean, 100*p.DeliveryRate.CI95)
	}
	// The paper's headline: suppression cuts traffic by up to 42% at four
	// sources.
	var with4, without4 *Fig8Point
	for i := range points {
		if p := &points[i]; p.Sources == 4 && p.Suppression {
			with4 = p
		} else if p.Sources == 4 {
			without4 = p
		}
	}
	if with4 != nil && without4 != nil && without4.BytesPerEvent.Mean > 0 {
		fmt.Fprintf(w, "suppression saves %.0f%% of bytes/event at 4 sources (paper: up to 42%%)\n",
			100*Fig8Savings(points, 4))
	}
}

// Fig8Savings returns the fractional bytes/event reduction at the given
// source count.
func Fig8Savings(points []Fig8Point, sources int) float64 {
	var with, without float64
	for _, p := range points {
		if p.Sources != sources {
			continue
		}
		if p.Suppression {
			with = p.BytesPerEvent.Mean
		} else {
			without = p.BytesPerEvent.Mean
		}
	}
	if without == 0 {
		return 0
	}
	return 1 - with/without
}
