package experiments

import (
	"fmt"
	"io"
	"time"

	"diffusion"
	"diffusion/internal/stats"
)

// This file measures the paper's section 6.1 latency claim: "the effect of
// aggregation on latency is strongly dependent on the specific,
// application-determined aggregation algorithm. The algorithm used in
// these experiments does not affect latency at all, since we forward
// unique events immediately upon reception and then suppress any
// additional duplicates ... Other aggregation algorithms, such as those
// that delay transmitting a sensor reading with the hope of aggregating
// readings from other sensors, can add some latency."

// LatencyPoint measures one aggregation mode.
type LatencyPoint struct {
	Mode string // "none", "suppression", "counting"
	// Latency is the mean event delivery latency source→sink.
	Latency stats.Summary
}

// RunLatency measures first-delivery latency for two sources on the
// testbed under the three aggregation modes. The counting aggregator uses
// the given window.
func RunLatency(seeds []int64, duration, window time.Duration) []LatencyPoint {
	var out []LatencyPoint
	for _, mode := range []string{"none", "suppression", "counting"} {
		var lats []float64
		for _, seed := range seeds {
			f := flow{
				cfg:     diffusion.NetworkConfig{Seed: seed},
				sources: diffusion.TestbedSources()[:2],
				payload: make([]byte, 50),
			}
			switch mode {
			case "suppression":
				f.setup = suppressAll
			case "counting":
				f.setup = func(net *diffusion.Network) {
					for _, id := range net.IDs() {
						net.NewCountingAggregator(net.Node(id), nil, window)
					}
				}
			}
			r := f.run(duration)
			for _, a := range r.got[0] {
				lats = append(lats, (a.at - r.sent[a.seq-1]).Seconds())
			}
		}
		out = append(out, LatencyPoint{Mode: mode, Latency: stats.Summarize(lats)})
	}
	return out
}

// PrintLatency renders the comparison.
func PrintLatency(w io.Writer, points []LatencyPoint, window time.Duration) {
	fmt.Fprintln(w, "Section 6.1 latency claim: suppression is latency-free; delaying aggregators are not")
	fmt.Fprintf(w, "mode          mean latency (2 sources, 4 hops; counting window %v)\n", window)
	for _, p := range points {
		fmt.Fprintf(w, "%-12s  %6.3fs ± %5.3fs  (n=%d events)\n",
			p.Mode, p.Latency.Mean, p.Latency.CI95, p.Latency.N)
	}
}
