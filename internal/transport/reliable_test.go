package transport

import (
	"encoding/binary"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// payloadOf builds a minimal payload whose leading byte is the message
// class — all the shedding policy looks at.
func payloadOf(c message.Class, tag string) []byte {
	return append([]byte{byte(c)}, tag...)
}

// pending returns in-flight plus queued reliable frames toward peer;
// CustodyPending counts the offers.
func (r *reliable) pending(peer uint32) int {
	n := 0
	if e := r.tab.peers[peer]; e != nil {
		for _, f := range slices.Concat(e.rel.inflight, e.rel.queue) {
			if !f.custody() {
				n++
			}
		}
	}
	return n
}

// wireLog is what a reliable sender put on the wire, step by step.
type wireLog struct {
	tags []string
	seqs []uint32
}

func (w *wireLog) add(fx *effects) {
	for i := 0; i < fx.n; i++ {
		w.tags = append(w.tags, string(fx.at(i).payload[1:]))
		w.seqs = append(w.seqs, fx.at(i).seq)
	}
}

func TestDupWindow(t *testing.T) {
	var w dupWindow
	if !w.fresh(100, 5) {
		t.Fatal("first frame must be fresh")
	}
	if w.fresh(100, 5) {
		t.Fatal("retransmission must be a duplicate")
	}
	if !w.fresh(100, 6) || !w.fresh(100, 9) {
		t.Fatal("forward progress must be fresh")
	}
	// Reordered delivery inside the window: 7 and 8 unseen, 6 seen.
	if !w.fresh(100, 7) || !w.fresh(100, 8) {
		t.Fatal("reordered unseen seqs must be fresh")
	}
	if w.fresh(100, 6) || w.fresh(100, 8) || w.fresh(100, 9) {
		t.Fatal("seen seqs must be duplicates")
	}
	// Jump far ahead, then a seq far beyond the 64-deep window: stale
	// replay, suppressed.
	if !w.fresh(100, 200) {
		t.Fatal("forward jump must be fresh")
	}
	if w.fresh(100, 100) {
		t.Fatal("seq beyond the window must be suppressed")
	}
	// A new boot nonce resets the window: the peer restarted and its
	// sequence space starts over.
	if !w.fresh(200, 1) {
		t.Fatal("restarted peer's first frame must be fresh")
	}
	if w.fresh(200, 1) || !w.fresh(200, 2) {
		t.Fatal("window must track the new incarnation")
	}
	// A jump > 64 ahead clears the bitmap without losing freshness.
	if !w.fresh(200, 500) || w.fresh(200, 500) {
		t.Fatal("large jump must stay consistent")
	}
}

// A frame below the duplicate window is counted as stale, apart from the
// duplicates inside it, and no Window can reach past the window.
func TestStaleCountedApart(t *testing.T) {
	var w dupWindow
	var s Stats
	w.fresh(1, 100)
	w.fresh(1, 36) // the oldest the window holds
	for _, seq := range []uint32{100, 36, 35} {
		if w.fresh(1, seq) {
			t.Fatalf("seq %d fresh again", seq)
		}
		s.refused(&w, seq)
	}
	if s.DupSuppressed.Load() != 2 || s.ReliableStale.Load() != 1 {
		t.Errorf("%d duplicates and %d stale, want 2 and 1", s.DupSuppressed.Load(), s.ReliableStale.Load())
	}
	c := ReliableConfig{Window: 100}
	if c.fill(); c.Window != dupSpan {
		t.Errorf("Window 100 filled to %d, want %d", c.Window, dupSpan)
	}
}

func TestSheddable(t *testing.T) {
	cases := []struct {
		class message.Class
		want  bool
	}{
		{message.Interest, true},
		{message.ExploratoryData, true},
		{message.Data, false},
		{message.PositiveReinforcement, false},
		{message.NegativeReinforcement, false},
	}
	for _, c := range cases {
		if got := sheddable(payloadOf(c.class, "x")); got != c.want {
			t.Errorf("sheddable(%v) = %v, want %v", c.class, got, c.want)
		}
	}
	if !sheddable(nil) {
		t.Error("empty payload should be sheddable")
	}
}

// TestReliableShedsInterestBeforeData fills a bounded queue and checks the
// overload policy: queued interest/exploratory traffic is dropped first,
// then incoming sheddable traffic, and only then the oldest data frame —
// reinforced data survives as long as anything else can go.
func TestReliableShedsInterestBeforeData(t *testing.T) {
	var stats Stats
	var log wireLog
	r := newReliable(ReliableConfig{
		RTO: time.Hour, Window: 1, QueueLimit: 3, MaxRetries: 1,
	}, testTable(9), &stats)
	send := func(c message.Class, tag string) {
		fx := &effects{}
		r.send(r.tab.peers[9], payloadOf(c, tag), 0, fx)
		log.add(fx)
	}

	send(message.Data, "d1") // in flight (window 1)
	send(message.Interest, "i1")
	send(message.Data, "d2") // queue: [i1 d2], pending 3
	// Queue full; a queued interest exists, so it is shed for new data.
	send(message.Data, "d3")
	if got := stats.QueueDrops.Load(); got != 1 {
		t.Fatalf("queue drops = %d, want 1 (i1 shed)", got)
	}
	// Queue full of data; an incoming exploratory frame sheds itself.
	send(message.ExploratoryData, "e1")
	if got := stats.QueueDrops.Load(); got != 2 {
		t.Fatalf("queue drops = %d, want 2 (e1 shed)", got)
	}
	// Queue full of data and more data arrives: the oldest queued data
	// frame gives way.
	send(message.Data, "d4")
	if got := stats.QueueDrops.Load(); got != 3 {
		t.Fatalf("queue drops = %d, want 3 (d2 evicted)", got)
	}
	if got := r.pending(9); got != 3 {
		t.Fatalf("pending = %d, want 3", got)
	}

	// Drain by acking whatever is written; the wire sequence must be all
	// data, in order, with the shed frames never transmitted.
	for i := 0; i < 3; i++ {
		fx := &effects{}
		r.ack(r.tab.peers[9], log.seqs[len(log.seqs)-1], false, 0, fx)
		log.add(fx)
	}
	if want := []string{"d1", "d3", "d4"}; !slices.Equal(log.tags, want) {
		t.Fatalf("wire = %v, want %v", log.tags, want)
	}
	if r.pending(9) != 0 {
		t.Fatalf("pending after drain = %d", r.pending(9))
	}
}

// TestReliableRetransmitsThenGivesUp leaves acks unanswered: the sender
// must retransmit MaxRetries times on the doubling schedule and then
// abandon the frame, freeing the window.
func TestReliableRetransmitsThenGivesUp(t *testing.T) {
	var stats Stats
	var log wireLog
	r := newReliable(ReliableConfig{
		RTO: 5 * time.Millisecond, MaxRTO: 15 * time.Millisecond,
		MaxRetries: 3, Window: 4, QueueLimit: 8,
	}, testTable(3), &stats)

	fx := &effects{}
	r.send(r.tab.peers[3], payloadOf(message.Data, "lost"), 0, fx)
	log.add(fx)
	// Wake the sender exactly when it asks: 5ms after the send, then 10ms
	// later, then at the 15ms cap twice — the last wake-up abandons.
	var woke []time.Duration
	for r.nextDeadline() != never {
		now := r.nextDeadline()
		woke = append(woke, now)
		fx := &effects{}
		r.tick(now, fx)
		log.add(fx)
	}
	ms := time.Millisecond
	if want := []time.Duration{5 * ms, 15 * ms, 30 * ms, 45 * ms}; !slices.Equal(woke, want) {
		t.Fatalf("woken at %v, want %v", woke, want)
	}
	if got := stats.Retransmits.Load(); got != 3 {
		t.Fatalf("retransmits = %d, want 3", got)
	}
	if stats.ReliableDrops.Load() != 1 {
		t.Fatalf("reliable drops = %d, want 1", stats.ReliableDrops.Load())
	}
	if want := []string{"lost", "lost", "lost", "lost"}; !slices.Equal(log.tags, want) {
		t.Fatalf("wire attempts = %v, want 1 + 3 retries", log.tags)
	}
	if r.pending(3) != 0 {
		t.Fatalf("abandoned frame still pending")
	}
}

// TestUDPReliableEndToEnd runs reliable unicast between two endpoints
// through a one-way ack blackout: the receiver keeps delivering exactly
// once (duplicates suppressed), and once the blackout heals the sender's
// window drains.
func TestUDPReliableEndToEnd(t *testing.T) {
	rel := &ReliableConfig{RTO: 15 * time.Millisecond, MaxRTO: 30 * time.Millisecond,
		MaxRetries: 50, Window: 4, QueueLimit: 16}
	n := newSimNet(t)
	a, b, _, cb := n.pair(UDPConfig{Reliable: rel}, UDPConfig{Reliable: rel})

	// Plain delivery: one send, one delivery one wire delay later, acked
	// one more after that.
	if err := a.Send(2, payloadOf(message.Data, "first")); err != nil {
		t.Fatal(err)
	}
	n.run(n.delay)
	if cb.count() != 1 || a.rel.pending(2) != 1 {
		t.Fatalf("after one wire delay: %d delivered, %d pending; want 1 and 1", cb.count(), a.rel.pending(2))
	}
	n.run(n.delay)
	if a.rel.pending(2) != 0 {
		t.Fatal("ack did not drain the window")
	}
	if a.Stats().AcksRecv.Load() != 1 || b.Stats().AcksSent.Load() != 1 {
		t.Fatalf("ack accounting: recv=%d sent=%d",
			a.Stats().AcksRecv.Load(), b.Stats().AcksSent.Load())
	}

	// Blackout b→a (egress loss on b only): data still flows a→b, but
	// acks die, so a retransmits and b must suppress the duplicates. Three
	// RTOs in — 15ms, then 30ms at the cap twice — a has retransmitted
	// three times.
	b.SetLoss(1)
	if err := a.Send(2, payloadOf(message.Data, "second")); err != nil {
		t.Fatal(err)
	}
	n.run(75*time.Millisecond + n.delay)
	if cb.count() != 2 {
		t.Fatalf("deliveries through the blackout = %d, want 2 (exactly once each)", cb.count())
	}
	if got := a.Stats().Retransmits.Load(); got != 3 {
		t.Fatalf("retransmits = %d, want 3", got)
	}
	if got := b.Stats().DupSuppressed.Load(); got != 3 {
		t.Fatalf("duplicates suppressed = %d, want 3", got)
	}

	// Heal: the next retransmission gets acked and the window drains.
	b.SetLoss(0)
	n.run(rel.MaxRTO + 2*n.delay)
	if a.rel.pending(2) != 0 {
		t.Fatal("window did not drain after the heal")
	}
	if cb.count() != 2 {
		t.Fatalf("deliveries after heal = %d, want still 2", cb.count())
	}
}

// Reliable frames are kept in recycled buffers, so a buffer must not be
// reused while its frame can still be retransmitted. 1 200 frames whose
// sizes cycle through 1 B–2 KiB cross a wire that loses a quarter of the
// datagrams each way and duplicates every seventh, so many frames are
// retransmitted and many recycled buffers are too small for the next
// payload. Every frame arrives exactly once with the bytes it was sent
// with, and after every entry the spare list holds at most QueueLimit
// buffers.
//
// A frame is sent every 5 ms. Faster, a frame whose data is lost on every
// try can fall more than 64 sequence numbers behind the receiver's newest,
// past its duplicate window: it is then acked as a stale replay and never
// delivered, recycling or not.
func TestReliableRecycledBuffersKeepTheirBytes(t *testing.T) {
	rel := &ReliableConfig{RTO: 10 * time.Millisecond, MaxRTO: 40 * time.Millisecond,
		MaxRetries: 50, Window: 8, QueueLimit: 2048}
	n := newSimNet(t)
	n.dup = 7
	a, _, _, cb := n.pair(UDPConfig{Reliable: rel, Loss: 0.25, Seed: 1}, UDPConfig{Reliable: rel, Loss: 0.25, Seed: 2})
	checkSpare := func() {
		t.Helper()
		if len(a.rel.spare) > rel.QueueLimit {
			t.Fatalf("%d spare buffers, QueueLimit %d", len(a.rel.spare), rel.QueueLimit)
		}
	}
	rng := rand.New(rand.NewSource(1))
	sent := map[string]int{}
	for i := 0; i < 1200; i++ {
		p := make([]byte, 1+i*193%2048) // 193 is odd: no size repeats within 2048 sends
		rng.Read(p)
		sent[string(p)]++
		if err := a.Send(2, p); err != nil {
			t.Fatal(err)
		}
		rng.Read(p) // the caller reuses its buffer once Send returns
		checkSpare()
		stop := false
		n.sched.After(5*time.Millisecond, func() { stop = true })
		for !stop && n.sched.Step() {
			checkSpare()
		}
	}
	for n.sched.Step() {
		checkSpare()
	}
	if a.Stats().Retransmits.Load() < 300 || n.frames < 2400 {
		t.Fatalf("only %d retransmissions in %d datagrams; the wire is not lossy enough to test anything", a.Stats().Retransmits.Load(), n.frames)
	}
	for i, p := range cb.got {
		if sent[p] == 0 {
			t.Fatalf("delivery %d (%d bytes) was never sent, or was delivered twice", i, len(p))
		}
		sent[p]--
	}
	if len(cb.got) != 1200 {
		t.Fatalf("%d of 1200 frames delivered", len(cb.got))
	}
}

// An ack means a delivery: 1 200 reliable frames in the default window, one
// every millisecond, over a wire that loses a quarter of the datagrams each
// way. Acks free the window out of order, so unless the sender bounds how
// far it runs ahead of its oldest unacked frame, a frame lost a few times
// falls more than the receiver's duplicate window behind the newest, and is
// acked but dropped there as a stale replay.
func TestReliableAckMeansDelivery(t *testing.T) {
	rel := &ReliableConfig{RTO: 10 * time.Millisecond, MaxRTO: 40 * time.Millisecond, MaxRetries: 50, QueueLimit: 2048}
	n := newSimNet(t)
	a, b, _, cb := n.pair(UDPConfig{Reliable: rel, Loss: 0.25, Seed: 1}, UDPConfig{Reliable: rel, Loss: 0.25, Seed: 2})
	for i := 0; i < 1200; i++ {
		if err := a.Send(2, binary.BigEndian.AppendUint32(nil, uint32(i))); err != nil {
			t.Fatal(err)
		}
		n.sched.RunUntil(n.sched.Now() + time.Millisecond)
	}
	for n.sched.Step() {
	}
	if a.Stats().ReliableDrops.Load() != 0 {
		t.Fatalf("%d frames abandoned; the test needs every frame through", a.Stats().ReliableDrops.Load())
	}
	seen := map[string]bool{}
	for _, p := range cb.got {
		if seen[p] {
			t.Fatalf("frame %x delivered twice", p)
		}
		seen[p] = true
	}
	if len(cb.got) != 1200 || b.Stats().ReliableStale.Load() != 0 {
		t.Errorf("%d of 1200 frames delivered, %d refused as stale", len(cb.got), b.Stats().ReliableStale.Load())
	}
}

// checkWire is a wire, safe for several writers, that checks every reliable
// frame's payload against the index it starts with (see indexed).
type checkWire struct{ frames, bad atomic.Int64 }

func (w *checkWire) LocalAddr() net.Addr { return net.UDPAddrFromAddrPort(simAddr(1)) }
func (w *checkWire) Close() error        { return nil }
func (w *checkWire) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) {
	w.frames.Add(1)
	if f, err := decodeFrame(b); err != nil || f.kind != kindReliable || len(f.payload) < 8 || !slices.Equal(f.payload, indexed(binary.BigEndian.Uint64(f.payload))) {
		w.bad.Add(1)
	}
	return len(b), nil
}

// indexed is payload i: i, then 8 to 71 copies of byte(i).
func indexed(i uint64) []byte {
	b := binary.BigEndian.AppendUint64(nil, i)
	for j := 0; j < 8+int(i%64); j++ {
		b = append(b, byte(i))
	}
	return b
}

// A frame's buffer is recycled when its ack arrives, which can be on another
// goroutine the moment the entry that sent the frame releases the lock; the
// next Send, on a third, then writes the buffer. Every frame is encoded
// before the lock is released, so no write reads a recycled buffer: under
// -race this is that check, and without it the wire still sees every frame
// whole.
func TestReliableRecycleRacesNoWrite(t *testing.T) {
	const perSender = 2000
	w := &checkWire{}
	u, err := newUDP(UDPConfig{ID: 1, Neighbors: neighbors(2), Deliver: func(uint32, []byte) {},
		Reliable: &ReliableConfig{RTO: time.Hour, Window: 4, QueueLimit: 1 << 20}}, sim.New(1), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	inFlight := func(seq uint32) bool {
		u.peersMu.Lock()
		defer u.peersMu.Unlock()
		return slices.ContainsFunc(u.peers[2].rel.inflight, func(f pending) bool { return f.seq == seq })
	}
	// A sender waits for window room, so that its own entry puts its frame
	// on the wire.
	room := func() bool {
		u.peersMu.Lock()
		defer u.peersMu.Unlock()
		return u.rel.pending(2) < u.rel.cfg.Window
	}
	var wg sync.WaitGroup
	for s := uint64(0); s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; i < 2*perSender; i += 2 {
				for !room() {
					runtime.Gosched()
				}
				if err := u.Send(2, indexed(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var d rxDatagram
	for seq := uint32(1); seq <= 2*perSender; seq++ {
		for !inFlight(seq) {
			runtime.Gosched()
		}
		u.receive(&d, appendFrame(nil, kindAck, 2, 1, 2, seq, 0, 0, nil), simAddr(2))
	}
	wg.Wait()
	if w.frames.Load() != 2*perSender || w.bad.Load() != 0 {
		t.Errorf("wire saw %d frames, %d of them not as sent; want %d and 0", w.frames.Load(), w.bad.Load(), 2*perSender)
	}
}
