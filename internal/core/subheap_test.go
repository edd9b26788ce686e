//go:build !race

package core

import (
	"fmt"
	"runtime"
	"testing"

	"diffusion/internal/attr"
	"diffusion/internal/sim"
)

// brokerVecs returns n distinct vectors shaped like the broker
// experiment's subscriptions: a task-EQ selector, and for every third a
// confidence floor.
func brokerVecs(n int) []attr.Vec {
	vecs := make([]attr.Vec, n)
	for i := range vecs {
		vecs[i] = attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, fmt.Sprintf("topic-%d", i))}
		if i%3 == 0 {
			vecs[i] = append(vecs[i], attr.Float64Attr(attr.KeyConfidence, attr.GT, 0.5))
		}
	}
	return vecs
}

func brokerNode() *Node {
	s := sim.New(1)
	return NewNode(Config{Clock: s, Rand: s.Rand(), Link: &countLink{id: 1}})
}

// subscriptionHeap installs n SubscribeLocals on a fresh node, perVec of
// them on each vector, and returns the live heap they hold per
// subscription after a collection. The vectors are built first and stay
// live throughout, so only what the node keeps is counted.
func subscriptionHeap(n, perVec int) float64 {
	vecs := brokerVecs(n / perVec)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	node := brokerNode()
	for i := 0; i < n; i++ {
		node.SubscribeLocal(vecs[i/perVec], nopCallback)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(node)
	runtime.KeepAlive(vecs)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// The subscription heap budget: 20 000 SubscribeLocals, all on distinct
// vectors (the broker experiment) or eight on each (cmd/diffbench's
// broker_mesh holds eight per topic). A distinct vector costs 889 B (the
// heap the process already holds moves it by a few bytes): its one
// attribute array serves the group, the interest entry and both index
// slots. Eight on a vector cost 173 B each, as the vector's group holds
// its attribute copy, index slots and sink record once and each further
// subscription adds only its own record (go 1.24, linux/amd64: the
// figures follow the runtime's map layout).
func TestSubscriptionHeap(t *testing.T) {
	for _, c := range []struct {
		name   string
		perVec int
		budget float64
	}{
		{"distinct", 1, 915},
		{"8 per vector", 8, 178},
	} {
		if got := subscriptionHeap(20000, c.perVec); got > c.budget {
			t.Errorf("%s: %.2f live heap bytes per subscription, budget %.0f", c.name, got, c.budget)
		} else {
			t.Logf("%s: %.2f live heap bytes per subscription (budget %.0f)", c.name, got, c.budget)
		}
	}
}

// A SubscribeLocal on a new vector allocates 9 times, its interest entry
// sharing the group's interest form. One on a vector already subscribed
// allocates less: no attribute copy, no interest form, no index slot, no
// interest entry, only its record (growth of the node's maps and of the
// group's member list is below AllocsPerRun's whole-number average).
func TestAllocsTwinSubscribeLocal(t *testing.T) {
	vecs := brokerVecs(201)
	node, i := brokerNode(), 0
	distinct := testing.AllocsPerRun(200, func() {
		node.SubscribeLocal(vecs[i], nopCallback)
		i++
	})
	node = brokerNode()
	twin := testing.AllocsPerRun(200, func() { node.SubscribeLocal(vecs[0], nopCallback) })
	if distinct > 9 {
		t.Errorf("a SubscribeLocal on a new vector allocates %.0f/op, budget 9", distinct)
	}
	if twin >= distinct || twin > 1 {
		t.Errorf("a twin SubscribeLocal allocates %.0f/op, a distinct one %.0f/op: budget 1, and below a distinct one", twin, distinct)
	}
}
