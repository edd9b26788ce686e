package rt_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/rt"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
	"diffusion/internal/transport"
)

// liveNode is one diffusion node on its own wall-clock loop: the exact
// wiring cmd/diffnode uses, here over the in-process mesh.
type liveNode struct {
	loop *rt.Loop
	node *core.Node
	link *transport.MeshLink
	reg  *telemetry.Registry
}

// newLiveCluster builds n nodes in a line (IDs 1..n) with compressed
// protocol timings so live tests complete in a couple of wall seconds.
func newLiveCluster(t *testing.T, n int) []*liveNode {
	t.Helper()
	mesh := transport.NewMesh(42)
	nodes := make([]*liveNode, n)
	for i := 0; i < n; i++ {
		id := uint32(i + 1)
		ln := &liveNode{loop: rt.NewLoop(), reg: telemetry.NewRegistry("node")}
		// Receptions cross from the sender's goroutine onto this node's
		// loop: the single place concurrency is bridged.
		ln.link = mesh.Attach(id, func(from uint32, payload []byte) {
			ln.loop.Post(func() { ln.node.Receive(from, payload) })
		})
		err := ln.loop.Call(func() {
			ln.node = core.NewNode(core.Config{
				Clock:               ln.loop,
				Rand:                rand.New(rand.NewSource(int64(id))),
				Link:                ln.link,
				InterestInterval:    300 * time.Millisecond,
				ExploratoryInterval: 10 * time.Second, // only the first send explores
				ForwardJitter:       5 * time.Millisecond,
			})
			ln.node.Instrument(ln.reg)
		})
		if err != nil {
			t.Fatal(err)
		}
		ln.link.Stats().Instrument(ln.reg)
		nodes[i] = ln
		if i > 0 {
			mesh.Connect(uint32(i), id)
		}
	}
	t.Cleanup(func() {
		for _, ln := range nodes {
			ln.loop.Stop()
		}
		mesh.Close()
	})
	return nodes
}

// TestLiveDiffusionPhases is TestDiffusionPhases run in real time: the
// same core code paths — interest propagation, gradient setup, exploratory
// delivery, reinforcement, plain-data delivery — driven by rt.Loop wall
// clocks and the in-process transport instead of the simulator.
func TestLiveDiffusionPhases(t *testing.T) {
	nodes := newLiveCluster(t, 4)
	sink, source := nodes[0], nodes[3]

	var mu sync.Mutex
	var got []message.Class
	interest := attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "surveillance"),
		attr.Int32Attr(attr.KeyInterval, attr.IS, 1000),
	}
	if err := sink.loop.Call(func() {
		sink.node.Subscribe(interest, func(m *message.Message) {
			mu.Lock()
			got = append(got, m.Class)
			mu.Unlock()
		})
	}); err != nil {
		t.Fatal(err)
	}

	var pub core.PublicationHandle
	source.loop.Call(func() {
		pub = source.node.Publish(attr.Vec{
			attr.StringAttr(attr.KeyTask, attr.IS, "surveillance"),
		})
	})

	// Give interests two refresh intervals to establish gradients, then
	// report every 50 ms.
	time.Sleep(700 * time.Millisecond)
	seq := int32(0)
	var tick sim.Timer
	source.loop.Call(func() {
		tick = sim.Every(source.loop, 0, 50*time.Millisecond, func() {
			seq++
			source.node.Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
		})
	})
	time.Sleep(1500 * time.Millisecond)
	source.loop.Call(func() { tick.Cancel() }) // freezes seq
	time.Sleep(100 * time.Millisecond)         // let the last events cross 3 hops

	mu.Lock()
	deliveries := append([]message.Class(nil), got...)
	mu.Unlock()
	var sent int32
	source.loop.Call(func() { sent = seq })

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
	// Lossless in-process links, 3 hops: expect nearly every event.
	if float64(len(deliveries)) < 0.9*float64(sent) {
		t.Errorf("delivered %d of %d events, want >= 90%%", len(deliveries), sent)
	}

	// The wall-clock snapshot path: every node's registry must show link
	// traffic and the source must account its data sends.
	for i, ln := range nodes {
		var snap map[string]float64
		if err := ln.loop.Call(func() { snap = ln.reg.Snapshot() }); err != nil {
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
// tears everything down, and checks the goroutine count settles — the
// in-process form of diffnode's clean-SIGTERM guarantee.
func TestLiveShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	mesh := transport.NewMesh(7)
	loops := make([]*rt.Loop, 3)
	for i := range loops {
		id := uint32(i + 1)
		loop := rt.NewLoop()
		loops[i] = loop
		var node *core.Node
		link := mesh.Attach(id, func(from uint32, payload []byte) {
			loop.Post(func() { node.Receive(from, payload) })
		})
		loop.Call(func() {
			node = core.NewNode(core.Config{
				Clock:            loop,
				Rand:             rand.New(rand.NewSource(int64(id))),
				Link:             link,
				InterestInterval: 50 * time.Millisecond,
				ForwardJitter:    2 * time.Millisecond,
			})
			if id == 1 {
				node.Subscribe(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "x")}, nil)
			}
		})
		if i > 0 {
			mesh.Connect(uint32(i), id)
		}
	}
	time.Sleep(200 * time.Millisecond)
	for _, l := range loops {
		l.Stop()
	}
	mesh.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, n)
	}
}
