//go:build !race

package diffusion_test

import (
	"testing"

	"diffusion"
)

// Building a node's parts (its port, metrics registry, MAC, flight
// recorder, diffusion core and their instruments) costs at most
// buildPerNode allocations. It is read as the difference between a 16×16
// and an 8×8 grid per node, so what a network builds once, the channel's
// slabs among it, drops out; the tables indexed by node grow by doubling,
// which the difference averages in.
func TestAllocsBuildNetworkPerNode(t *testing.T) {
	const buildPerNode = 26
	var got [2]float64
	for i, side := range []int{8, 16} {
		tp := diffusion.GridTopology(side, side, 9)
		got[i] = testing.AllocsPerRun(3, func() { diffusion.NewNetwork(diffusion.NetworkConfig{Seed: 1, Topology: tp}) })
	}
	if per := (got[1] - got[0]) / (16*16 - 8*8); per > buildPerNode {
		t.Errorf("building a node allocates %.2f (%.0f for 64 nodes, %.0f for 256), budget %d", per, got[0], got[1], buildPerNode)
	}
}
