//go:build !race

package diffusion_test

import (
	"runtime"
	"testing"

	"diffusion"
)

// Building a node's parts (its port, metrics registry, MAC, diffusion core
// and their instruments) costs at most buildPerNode allocations. It is
// read as the difference between a 16×16 and an 8×8 grid per node, so what
// a network builds once, the channel's slabs among it, drops out; the
// tables indexed by node grow by doubling, which the difference averages
// in.
func TestAllocsBuildNetworkPerNode(t *testing.T) {
	const buildPerNode = 24
	var got [2]float64
	for i, side := range []int{8, 16} {
		tp := diffusion.GridTopology(side, side, 9)
		got[i] = testing.AllocsPerRun(3, func() { diffusion.NewNetwork(diffusion.NetworkConfig{Seed: 1, Topology: tp}) })
	}
	if per := (got[1] - got[0]) / (16*16 - 8*8); per > buildPerNode {
		t.Errorf("building a node allocates %.2f (%.0f for 64 nodes, %.0f for 256), budget %d", per, got[0], got[1], buildPerNode)
	}
}

// A built 32×32 grid holds at most heapPerNode bytes of live heap per
// node, its topology apart: 4.3 KiB on go 1.24, linux/amd64 (port,
// registry, MAC, diffusion core, its share of the channel's links). A
// simulated node keeps no flight ring: every node's 256-event window was
// 8 KiB of the 12.4 KiB a node held with one.
func TestNetworkHeapPerNode(t *testing.T) {
	const heapPerNode = 5 << 10
	tp := diffusion.GridTopology(32, 32, 9)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	net := diffusion.NewNetwork(diffusion.NetworkConfig{Seed: 1, Topology: tp})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(net)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (32 * 32)
	if per > heapPerNode {
		t.Errorf("a built node holds %.0f B of live heap, budget %d", per, heapPerNode)
	} else {
		t.Logf("a built node holds %.0f B of live heap (budget %d)", per, heapPerNode)
	}
}
