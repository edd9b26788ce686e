package experiments

import (
	"fmt"
	"io"
	"time"

	"diffusion"
	"diffusion/internal/stats"
)

// This file compares the two ends of the diffusion design space the paper's
// section 3.1 alludes to ("although our example describes a particular
// usage of the directed diffusion paradigm (a query-response type usage),
// the paradigm itself is more general than that"): two-phase pull (the
// paper's default: interests flood, data answers) versus one-phase push
// (sinks subscribe locally, sources flood exploratory data, and
// reinforcements install the paths). Pull pays one interest flood per sink
// per refresh; push pays one exploratory flood per source per cycle — so
// push wins as sinks outnumber sources.

// PushPullPoint compares the variants at one sink count.
type PushPullPoint struct {
	Sinks int
	Push  bool
	// BytesPerDelivery is total diffusion bytes over total distinct
	// event-deliveries (summed across sinks).
	BytesPerDelivery stats.Summary
	// Delivery is the mean per-sink distinct-event delivery rate.
	Delivery stats.Summary
}

// pushPullSinks are the sink placements (spread across the testbed).
func pushPullSinks() []uint32 { return []uint32{28, 39, 24, 11} }

// RunPushPull sweeps sink counts for both variants.
func RunPushPull(seeds []int64, duration time.Duration, sinkCounts []int) []PushPullPoint {
	var out []PushPullPoint
	for _, push := range []bool{false, true} {
		for _, sinks := range sinkCounts {
			s := overSeeds(seeds, func(seed int64) []float64 {
				r := flow{
					cfg:     diffusion.NetworkConfig{Seed: seed},
					sinks:   pushPullSinks()[:sinks],
					push:    push,
					sources: []uint32{13},
					payload: make([]byte, 50),
				}.run(duration)
				deliveries, rateSum := 0, 0.0
				for i, got := range r.got {
					deliveries += len(got)
					rateSum += r.delivery(i)
				}
				return []float64{
					float64(r.net.TotalDiffusionBytes()) / float64(max(deliveries, 1)),
					rateSum / float64(sinks),
				}
			})
			out = append(out, PushPullPoint{Sinks: sinks, Push: push, BytesPerDelivery: s[0], Delivery: s[1]})
		}
	}
	return out
}

// PrintPushPull renders the comparison.
func PrintPushPull(w io.Writer, points []PushPullPoint) {
	fmt.Fprintln(w, "Ablation: two-phase pull vs one-phase push (1 source, growing sink population)")
	fmt.Fprintln(w, "sinks   variant   bytes/delivery     delivery")
	for _, p := range points {
		mode := "pull"
		if p.Push {
			mode = "push"
		}
		fmt.Fprintf(w, "%5d   %s      %8.0f ± %5.0f   %5.1f%% ± %4.1f%%\n",
			p.Sinks, mode, p.BytesPerDelivery.Mean, p.BytesPerDelivery.CI95,
			100*p.Delivery.Mean, 100*p.Delivery.CI95)
	}
	fmt.Fprintln(w, "(pull floods one interest per sink per refresh; push floods one exploratory per")
	fmt.Fprintln(w, " source per cycle — push amortizes better as sinks multiply)")
}
