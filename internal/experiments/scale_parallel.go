package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"diffusion"
)

// The 1024-node grid workload: ~75x the paper's 14-node testbed, four corner
// sinks and five sources. Its callers are the frozen benchmark's
// sim.shards4_speedup probe and the fingerprint pins in determinism_test.go;
// the names keep their "Parallel" (from the sharded kernel, DESIGN.md
// section 8) until a benchmark change drops that probe.

// ParallelScaleConfig parameterizes the 1024-node run.
type ParallelScaleConfig struct {
	Seed int64
	// Side is the grid side length (Side x Side nodes; default 32).
	Side int
	// Spacing is the grid pitch in meters (default 9: solid links to the
	// 4-neighborhood, fading diagonals — multi-hop everywhere).
	Spacing float64
	// Duration is the virtual time simulated (default 2 minutes).
	Duration time.Duration
	// ReportInterval is each source's data cadence (default 5 s).
	ReportInterval time.Duration
	// TraceLimit bounds the comparison trace (default 200k events).
	TraceLimit int
}

// DefaultParallelScale returns the 1024-node configuration.
func DefaultParallelScale() ParallelScaleConfig {
	return ParallelScaleConfig{
		Seed:           1,
		Side:           32,
		Spacing:        9,
		Duration:       2 * time.Minute,
		ReportInterval: 5 * time.Second,
		TraceLimit:     200_000,
	}
}

// MeasureParallelScale runs the workload once and returns the wall time,
// the sink delivery count, and a fingerprint of the exported trace plus
// metrics snapshot. The shard count is accepted for the frozen benchmark
// and unused.
func MeasureParallelScale(cfg ParallelScaleConfig, shards int) (time.Duration, int, string) {
	side := cfg.Side
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     cfg.Seed,
		Topology: diffusion.GridTopology(side, side, cfg.Spacing),
	})
	tr := net.NewTrace(cfg.TraceLimit)
	interest, publication := scaleAttrs()

	n := uint32(side * side)
	// Four corner sinks pull data across the whole grid; sources sit at
	// the edge midpoints and the center.
	sinks := []uint32{1, uint32(side), n - uint32(side) + 1, n}
	sources := []uint32{
		uint32(side/2 + 1),             // top edge midpoint
		uint32(side*(side/2) + 1),      // left edge midpoint
		uint32(side*(side/2) + side),   // right edge midpoint
		uint32(side*(side-1) + side/2), // bottom edge midpoint
		uint32(side*(side/2) + side/2), // center
	}
	counts := make([]int, len(sinks))
	for i, id := range sinks {
		i := i
		net.Node(id).Subscribe(interest, func(*diffusion.Message) { counts[i]++ })
	}
	for _, id := range sources {
		src := net.Node(id)
		pub := src.Publish(publication)
		seq := int32(0)
		net.Every(cfg.ReportInterval, func() {
			seq++
			src.Send(pub, diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
			})
		})
	}

	start := time.Now()
	net.Run(cfg.Duration)
	wall := time.Since(start)

	var fp bytes.Buffer
	if err := tr.ExportJSONL(&fp); err != nil {
		panic(fmt.Sprintf("parallel scale: trace export: %v", err))
	}
	net.MetricsSnapshot().Write(&fp)
	sum := sha256.Sum256(fp.Bytes())
	delivered := 0
	for _, c := range counts {
		delivered += c
	}
	return wall, delivered, hex.EncodeToString(sum[:8])
}

// scaleAttrs returns the workload's interest and publication attributes.
func scaleAttrs() (diffusion.Attributes, diffusion.Attributes) {
	interest := diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.EQ, "wide-area"),
	}
	publication := diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.IS, "wide-area"),
	}
	return interest, publication
}
