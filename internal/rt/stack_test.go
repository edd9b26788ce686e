package rt_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/chaos"
	"diffusion/internal/core"
	"diffusion/internal/rt"
	"diffusion/internal/transport"
)

// freePorts picks n free loopback UDP ports.
func freePorts(tb testing.TB, n int) []int {
	tb.Helper()
	ports, err := chaos.FreePorts("udp", n)
	if err != nil {
		tb.Fatal(err)
	}
	return ports
}

// lineConfig configures stack i of a line over loopback UDP on the given
// ports: ID i+1, the stacks either side as its neighbors, seed i. The
// caller adds the protocol timings.
func lineConfig(ports []int, i int) rt.StackConfig {
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }
	neighbors := map[uint32]string{}
	if i > 0 {
		neighbors[uint32(i)] = addr(i - 1)
	}
	if i < len(ports)-1 {
		neighbors[uint32(i+2)] = addr(i + 1)
	}
	return rt.StackConfig{
		Link: transport.UDPConfig{ID: uint32(i + 1), Listen: addr(i), Neighbors: neighbors, Seed: int64(i)},
		Node: core.Config{Rand: rand.New(rand.NewSource(int64(i)))},
		Log:  io.Discard,
	}
}

// newStack is rt.NewStack for a test: an error is fatal. The caller owns
// Close.
func newStack(tb testing.TB, c rt.StackConfig) *rt.Stack {
	tb.Helper()
	st, err := rt.NewStack(c)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

// waitFor polls cond until it holds; the deadline only bounds a failure.
func waitFor(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestStackHandsEveryFrameToTheNode: stack B boots while stack A is
// already refreshing interests toward B's port every few milliseconds, so
// frames reach B's socket while B is being built. Each one the endpoint
// accepts must reach the node: once both stacks are closed, B's transport
// Recv equals what its core received, by class plus malformed. With
// liveness on, each death B's detector declares is one NeighborDead at
// the core. Only identities reached at quiescence are asserted, never
// elapsed times.
func TestStackHandsEveryFrameToTheNode(t *testing.T) {
	ports := freePorts(t, 2)
	config := func(i int) rt.StackConfig {
		c := lineConfig(ports, i)
		c.Link.Liveness = &transport.LivenessConfig{
			Interval: 20 * time.Millisecond, SuspectAfter: 200 * time.Millisecond, DeadAfter: 400 * time.Millisecond,
		}
		c.Node.InterestInterval = 3 * time.Millisecond
		c.Node.ForwardJitter = time.Millisecond
		return c
	}
	a := newStack(t, config(0))
	a.Loop.Call(func() { a.Node.Subscribe(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "handoff")}, nil) })
	waitFor(t, "A to send toward B's port", func() bool { return a.Link.Stats().Sent.Load() >= 3 })
	b := newStack(t, config(1))
	bs := b.Link.Stats()
	waitFor(t, "A's frames at B", func() bool { return bs.Recv.Load() >= 20 })

	a.Close()
	waitFor(t, "B to declare A dead", func() bool { return bs.PeerDeaths.Load() >= 1 })
	// The verdict is counted before the detector's callback posts it, so
	// wait for the core to catch up before closing B.
	waitFor(t, "B's core to hear of the death", func() bool {
		deaths := 0
		b.Loop.Call(func() { deaths = b.Node.Stats.NeighborDeaths })
		return uint64(deaths) >= bs.PeerDeaths.Load()
	})
	b.Close()

	handled := uint64(b.Node.Stats.ReceiveMalformed)
	for _, n := range b.Node.Stats.ReceivedByClass {
		handled += uint64(n)
	}
	if recv := bs.Recv.Load(); recv == 0 || recv != handled {
		t.Errorf("B's endpoint handed up %d frames and its node received %d", recv, handled)
	}
	if peer, node := bs.PeerDeaths.Load(), b.Node.Stats.NeighborDeaths; peer != 1 || uint64(node) != peer {
		t.Errorf("B's detector declared %d deaths and its core handled %d, want 1 and 1", peer, node)
	}
}
