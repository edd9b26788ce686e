package transport

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The tests in this file are the socket-level set: they bind real
// loopback sockets and run the reader goroutine. Everything about the
// protocols above the socket is tested in virtual time (simnet_test.go).

// collector accumulates deliveries thread-safely for assertions.
type collector struct {
	mu      sync.Mutex
	got     []string
	held    [][]byte // the payloads as handed over, which Deliver owns
	from    []uint32
	arrived chan struct{} // one token per delivery, when a test made it
}

func (c *collector) deliver(from uint32, payload []byte) {
	c.mu.Lock()
	c.got = append(c.got, string(payload))
	c.held = append(c.held, payload)
	c.from = append(c.from, from)
	c.mu.Unlock()
	if c.arrived != nil {
		c.arrived <- struct{}{}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *collector) snapshot() ([]string, []uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.got...), append([]uint32(nil), c.from...)
}

// next blocks until one more delivery has arrived.
func (c *collector) next(t *testing.T, what string) {
	t.Helper()
	select {
	case <-c.arrived:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// listen binds one loopback endpoint whose deliveries land in the
// returned collector.
func listen(t *testing.T, cfg UDPConfig) (*UDP, *collector) {
	t.Helper()
	c := &collector{arrived: make(chan struct{}, 64)} // more than any test here sends
	cfg.Listen, cfg.Deliver = "127.0.0.1:0", c.deliver
	u, err := ListenUDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	return u, c
}

// socketPair builds two connected loopback UDP endpoints, IDs 1 and 2.
func socketPair(t *testing.T, aCfg, bCfg UDPConfig) (*UDP, *UDP, *collector, *collector) {
	t.Helper()
	// b's address must be known before a is built, and the other way
	// round: bind a throwaway socket to reserve a's port.
	hold, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	aAddr := hold.LocalAddr().String()
	bCfg.ID, bCfg.Neighbors = 2, map[uint32]string{1: aAddr}
	b, cb := listen(t, bCfg)
	hold.Close()
	aCfg.ID, aCfg.Neighbors = 1, map[uint32]string{2: b.LocalAddr().String()}
	ca := &collector{arrived: make(chan struct{}, 64)}
	aCfg.Listen, aCfg.Deliver = aAddr, ca.deliver
	a, err := ListenUDP(aCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a, b, ca, cb
}

func TestUDPUnicastRoundTrip(t *testing.T) {
	a, b, ca, cb := socketPair(t, UDPConfig{}, UDPConfig{})
	if err := a.Send(2, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	cb.next(t, "b to receive")
	got, from := cb.snapshot()
	if got[0] != "ping" || from[0] != 1 {
		t.Fatalf("b received %q from %d", got[0], from[0])
	}
	if err := b.Send(1, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	ca.next(t, "a to receive")
	got, from = ca.snapshot()
	if got[0] != "pong" || from[0] != 2 {
		t.Fatalf("a received %q from %d", got[0], from[0])
	}
	if a.Stats().Sent.Load() != 1 || a.Stats().Recv.Load() != 1 {
		t.Fatalf("a accounting: %d sent %d recv, want 1/1",
			a.Stats().Sent.Load(), a.Stats().Recv.Load())
	}
	if a.Stats().SentBytes.Load() != uint64(headerSize+4) {
		t.Fatalf("a sent %d bytes, want %d", a.Stats().SentBytes.Load(), headerSize+4)
	}
}

func TestUDPBroadcastFansOutToNeighbors(t *testing.T) {
	// Hub node 1 with neighbors 2 and 3; broadcast must reach both.
	placeholder := map[uint32]string{1: "127.0.0.1:1"} // b and c never send
	b, c2 := listen(t, UDPConfig{ID: 2, Neighbors: placeholder})
	c, c3 := listen(t, UDPConfig{ID: 3, Neighbors: placeholder})
	hub, _ := listen(t, UDPConfig{ID: 1, Neighbors: map[uint32]string{
		2: b.LocalAddr().String(),
		3: c.LocalAddr().String(),
	}})

	if err := hub.Send(Broadcast, []byte("flood")); err != nil {
		t.Fatal(err)
	}
	c2.next(t, "neighbor 2")
	c3.next(t, "neighbor 3")
	if hub.Stats().Sent.Load() != 2 {
		t.Fatalf("broadcast sent %d datagrams, want 2", hub.Stats().Sent.Load())
	}
}

func TestUDPRejectsStrangersAndMalformed(t *testing.T) {
	a, b, _, cb := socketPair(t, UDPConfig{}, UDPConfig{})

	// A frame claiming an unconfigured sender ID must be dropped.
	stranger, _ := listen(t, UDPConfig{ID: 99, Neighbors: map[uint32]string{2: b.LocalAddr().String()}})
	if err := stranger.Send(2, []byte("spoof")); err != nil {
		t.Fatal(err)
	}
	// Raw garbage straight at the socket must be dropped too.
	raw, err := net.Dial("udp", b.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		t.Fatal(err)
	}

	// A legitimate frame still gets through afterwards; loopback queues
	// datagrams in send order, so by then both rejects are accounted.
	if err := a.Send(2, []byte("real")); err != nil {
		t.Fatal(err)
	}
	cb.next(t, "legit delivery")
	if got, _ := cb.snapshot(); len(got) != 1 || got[0] != "real" {
		t.Fatalf("b delivered %q, want only the legitimate frame", got)
	}
	if got := b.Stats().RecvDropped.Load(); got != 2 {
		t.Fatalf("RecvDropped = %d, want 2 (stranger + garbage)", got)
	}

	// Unicast to an unknown neighbor errors without touching the wire.
	if err := a.Send(42, []byte("x")); err == nil {
		t.Fatal("send to unknown neighbor must error")
	}
	if a.Stats().SendErrors.Load() == 0 {
		t.Fatal("unknown-neighbor send must be accounted")
	}
	// Oversize payloads are rejected before framing.
	if err := a.Send(2, make([]byte, maxPayload+1)); err != ErrTooLarge {
		t.Fatalf("oversize send = %v, want ErrTooLarge", err)
	}
}

// TestUDPInjectedLossDropsEverything: injected loss and a partition both
// discard at the egress point, each under its own counter, and nothing
// reaches the socket.
func TestUDPInjectedLossDropsEverything(t *testing.T) {
	a, _, _, cb := socketPair(t, UDPConfig{Loss: 1.0, Seed: 7}, UDPConfig{})
	for i := 0; i < 20; i++ {
		if err := a.Send(2, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats().LossInjected.Load(); got != 20 {
		t.Fatalf("LossInjected = %d, want 20", got)
	}
	a.SetLoss(0)
	a.SetBlocked([]uint32{2})
	if err := a.Send(2, []byte("partitioned")); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().PartitionDropped.Load(); got != 1 {
		t.Fatalf("PartitionDropped = %d, want 1", got)
	}
	if got := a.Stats().Sent.Load(); got != 0 {
		t.Fatalf("loss=1.0 and a partition still sent %d datagrams", got)
	}
	// With both healed the next datagram is the first b ever sees.
	a.SetBlocked(nil)
	if err := a.Send(2, []byte("through")); err != nil {
		t.Fatal(err)
	}
	cb.next(t, "delivery after heal")
	if got, _ := cb.snapshot(); len(got) != 1 || got[0] != "through" {
		t.Fatalf("b received %q, want only the healed send", got)
	}
}

func TestUDPCloseIsIdempotentAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		// Every engine on, so Close has a timer to stop as well as a reader.
		u, err := ListenUDP(UDPConfig{ID: 1, Listen: "127.0.0.1:0",
			Deliver:   (&collector{}).deliver,
			Liveness:  &LivenessConfig{Interval: time.Millisecond},
			Reliable:  &ReliableConfig{},
			Discovery: &DiscoveryConfig{Interval: time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Close(); err != nil {
			t.Fatal(err)
		}
		if err := u.Close(); err != nil {
			t.Fatal(err)
		}
		if err := u.Send(2, []byte("late")); err != ErrClosed {
			t.Fatalf("Send after Close = %v, want ErrClosed", err)
		}
	}
	// Close has waited for each reader; a timer callback that lost the
	// race with it may still be returning.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 }, "goroutines to exit")
}
