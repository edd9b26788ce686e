package experiments

import (
	"fmt"
	"io"
	"time"

	"diffusion"
	"diffusion/internal/stats"
)

// This file probes the scalability claim the paper inherits from its
// simulation predecessor ("finding that scalability is good as numbers of
// nodes and traffic increases", section 1): the same one-sink/one-source
// surveillance workload on growing grids, measuring delivery and the
// per-node byte overhead. If diffusion scales, per-node control traffic
// stays roughly flat while the network grows.

// ScalePoint is one grid size measurement.
type ScalePoint struct {
	Nodes int
	// Delivery is the distinct-event delivery rate corner-to-corner.
	Delivery stats.Summary
	// BytesPerNode is total diffusion bytes divided by node count — the
	// per-node cost of participating.
	BytesPerNode stats.Summary
	// PathHops is the corner-to-corner hop distance.
	PathHops int
}

// RunScaleSweep measures delivery and per-node load on n×n grids.
func RunScaleSweep(seeds []int64, duration time.Duration, sizes []int) []ScalePoint {
	var out []ScalePoint
	for _, n := range sizes {
		s := overSeeds(seeds, func(seed int64) []float64 {
			r := flow{
				cfg:     diffusion.NetworkConfig{Seed: seed, Topology: diffusion.GridTopology(n, n, 10)},
				sinks:   []uint32{1},
				sources: []uint32{uint32(n * n)},
				payload: make([]byte, 50),
			}.run(duration)
			return []float64{r.delivery(0), float64(r.net.TotalDiffusionBytes()) / float64(n*n)}
		})
		out = append(out, ScalePoint{
			Nodes:        n * n,
			Delivery:     s[0],
			BytesPerNode: s[1],
			PathHops:     diffusion.GridTopology(n, n, 10).HopDistance(1, uint32(n*n), 13.5),
		})
	}
	return out
}

// PrintScaleSweep renders the sweep.
func PrintScaleSweep(w io.Writer, points []ScalePoint) {
	fmt.Fprintln(w, "Scalability: corner-to-corner surveillance on growing grids")
	fmt.Fprintln(w, "nodes   path-hops   delivery          bytes/node")
	for _, p := range points {
		fmt.Fprintf(w, "%5d   %9d   %5.1f%% ± %4.1f%%   %7.0f ± %4.0f\n",
			p.Nodes, p.PathHops,
			100*p.Delivery.Mean, 100*p.Delivery.CI95,
			p.BytesPerNode.Mean, p.BytesPerNode.CI95)
	}
	fmt.Fprintln(w, "(flooded control traffic costs each node about the same regardless of network size;")
	fmt.Fprintln(w, " delivery decays with path length, as any hop-by-hop best-effort system's must)")
}
