package rt_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/rt"
	"diffusion/internal/sim"
)

// newLiveCluster builds n stacks in a line over loopback UDP (IDs 1..n) —
// cmd/diffnode's wiring — with compressed protocol timings so live tests
// complete in a couple of wall seconds.
func newLiveCluster(t *testing.T, n int) []*rt.Stack {
	t.Helper()
	ports := freePorts(t, n)
	stacks := make([]*rt.Stack, n)
	for i := range stacks {
		c := lineConfig(ports, i)
		c.Node.InterestInterval = 300 * time.Millisecond
		c.Node.ExploratoryInterval = 10 * time.Second // only the first send explores
		c.Node.ForwardJitter = 5 * time.Millisecond
		st := newStack(t, c)
		t.Cleanup(func() { st.Close() })
		stacks[i] = st
	}
	return stacks
}

// TestLiveDiffusionPhases is TestDiffusionPhases run in real time: the
// same core code paths — interest propagation, gradient setup, exploratory
// delivery, reinforcement, plain-data delivery — driven by rt.Loop wall
// clocks over loopback UDP instead of the simulator.
func TestLiveDiffusionPhases(t *testing.T) {
	nodes := newLiveCluster(t, 4)
	sink, source := nodes[0], nodes[3]

	var mu sync.Mutex
	var got []message.Class
	interest := attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "surveillance"),
		attr.Int32Attr(attr.KeyInterval, attr.IS, 1000),
	}
	if err := sink.Loop.Call(func() {
		sink.Node.Subscribe(interest, func(m *message.Message) {
			mu.Lock()
			got = append(got, m.Class)
			mu.Unlock()
		})
	}); err != nil {
		t.Fatal(err)
	}

	var pub core.PublicationHandle
	source.Loop.Call(func() {
		pub = source.Node.Publish(attr.Vec{
			attr.StringAttr(attr.KeyTask, attr.IS, "surveillance"),
		})
	})

	// Give interests two refresh intervals to establish gradients, then
	// report every 50 ms.
	time.Sleep(700 * time.Millisecond)
	seq := int32(0)
	var tick sim.Timer
	source.Loop.Call(func() {
		tick = sim.Every(source.Loop, 0, 50*time.Millisecond, func() {
			seq++
			source.Node.Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
		})
	})
	time.Sleep(1500 * time.Millisecond)
	source.Loop.Call(func() { tick.Cancel() }) // freezes seq
	time.Sleep(100 * time.Millisecond)         // let the last events cross 3 hops

	mu.Lock()
	deliveries := append([]message.Class(nil), got...)
	mu.Unlock()
	var sent int32
	source.Loop.Call(func() { sent = seq })

	if len(deliveries) == 0 {
		t.Fatal("sink received nothing")
	}
	if deliveries[0] != message.ExploratoryData {
		t.Errorf("first delivery should be exploratory, got %v", deliveries[0])
	}
	plain := 0
	for _, c := range deliveries {
		if c == message.Data {
			plain++
		}
	}
	if plain == 0 {
		t.Error("reinforced path should carry plain data messages")
	}
	// Loopback links, 3 hops: expect nearly every event.
	if float64(len(deliveries)) < 0.9*float64(sent) {
		t.Errorf("delivered %d of %d events, want >= 90%%", len(deliveries), sent)
	}

	// The wall-clock snapshot path: every node's registry must show link
	// traffic and the source must account its data sends.
	for i, st := range nodes {
		var snap map[string]float64
		if err := st.Loop.Call(func() { snap = st.Reg.Snapshot() }); err != nil {
			t.Fatal(err)
		}
		if snap["transport.sent"] == 0 {
			t.Errorf("node %d transport.sent = 0", i+1)
		}
		if snap["core.bytes_sent"] == 0 {
			t.Errorf("node %d core.bytes_sent = 0", i+1)
		}
	}
}

// TestLiveShutdownLeavesNoGoroutines builds a live cluster, runs traffic,
// closes every stack, and checks the goroutine count settles — the
// in-process form of diffnode's clean-SIGTERM guarantee.
func TestLiveShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	ports := freePorts(t, 3)
	stacks := make([]*rt.Stack, len(ports))
	for i := range stacks {
		c := lineConfig(ports, i)
		c.Node.InterestInterval = 50 * time.Millisecond
		c.Node.ForwardJitter = 2 * time.Millisecond
		stacks[i] = newStack(t, c)
	}
	stacks[0].Loop.Call(func() {
		stacks[0].Node.Subscribe(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "x")}, nil)
	})
	time.Sleep(200 * time.Millisecond)
	for _, st := range stacks {
		st.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, n)
	}
}
