//go:build !race

package transport

import (
	"net"
	"net/netip"
	"testing"

	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// discardWire is the in-memory wire without simWire's copy and scheduled
// delivery, whose allocations would be counted as the endpoint's.
type discardWire struct{ frames, bytes int }

func (w *discardWire) LocalAddr() net.Addr { return net.UDPAddrFromAddrPort(simAddr(1)) }
func (w *discardWire) Close() error        { return nil }
func (w *discardWire) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) {
	w.frames++
	w.bytes += len(b)
	return len(b), nil
}

// A fire-and-forget Send borrows the payload and frames it into a pooled
// buffer: nothing is allocated per datagram, written at once or held.
func TestAllocsUDPSend(t *testing.T) {
	w := &discardWire{}
	u, err := newUDP(UDPConfig{ID: 1, Neighbors: neighbors(2, 3), Deliver: func(uint32, []byte) {}}, sim.New(1), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	payload := make([]byte, 119)
	for _, dst := range []uint32{2, Broadcast} {
		if n := testing.AllocsPerRun(100, func() {
			if err := u.Send(dst, payload); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Send to %d allocates %.0f/op", dst, n)
		}
	}
	if want := 101 * (1 + 2); w.frames != want || w.bytes != want*(headerSize+len(payload)) {
		t.Errorf("wire saw %d frames, %d bytes; want %d frames of %d bytes", w.frames, w.bytes, want, headerSize+len(payload))
	}

	// Corked, the frames go into buffers from the same pool and the held
	// list is emptied in place: a wake-up of 8 sends and its Uncork is free
	// too, and is one datagram.
	w.frames = 0
	if n := testing.AllocsPerRun(100, func() {
		u.Cork()
		for i := 0; i < 8; i++ {
			if err := u.Send(2, payload); err != nil {
				t.Fatal(err)
			}
		}
		u.Uncork()
	}); n != 0 {
		t.Errorf("8 corked sends and Uncork allocate %.0f/wake-up", n)
	}
	if w.frames != 101 || u.Stats().FramesSent.Load() != 101*(1+2+8) {
		t.Errorf("wire saw %d datagrams of %d frames in all; want 101 and %d", w.frames, u.Stats().FramesSent.Load(), 101*(1+2+8))
	}

	// Toward a loopback address, 8 corked 1 KiB sends leave as one datagram
	// at Uncork, and that wake-up is free as well.
	lw := &discardWire{}
	lo, err := newUDP(UDPConfig{ID: 1, Neighbors: map[uint32]string{2: loopAddr(2).String()}, Deliver: func(uint32, []byte) {}}, sim.New(1), lw, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lo.Close()
	if n := testing.AllocsPerRun(100, func() {
		lo.Cork()
		for i := 0; i < 8; i++ {
			if err := lo.Send(2, kib); err != nil {
				t.Fatal(err)
			}
		}
		lo.Uncork()
	}); n != 0 {
		t.Errorf("8 corked 1 KiB sends toward loopback and Uncork allocate %.0f/wake-up", n)
	}
	if want := 101; loopbackCap() >= eightKiB && lw.frames != want {
		t.Errorf("wire saw %d datagrams, want %d", lw.frames, want)
	}
}

// A reliable reception handed to a corking consumer, and the consumer's
// wake-up around it, allocate nothing once amortised: the datagram's copy,
// which Deliver is handed a window on, is carved from the record's slab,
// and the held ack goes into a pooled buffer like any held frame, and
// leaves in one datagram at Uncork. The datagrams come in as the reader's
// do, through one reused buffer and one reused record.
func TestAllocsReliableReceiveHeld(t *testing.T) {
	w := &discardWire{}
	u, err := newUDP(UDPConfig{ID: 1, Neighbors: neighbors(2), Reliable: &ReliableConfig{}, Deliver: func(uint32, []byte) {}}, sim.New(1), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	u.Cork()
	u.Uncork()
	frames := make([][]byte, 101)
	for i := range frames {
		frames[i] = appendFrame(nil, kindReliable, 2, 1, 2, uint32(i+1), 0, 0, make([]byte, 119))
	}
	i, early := 0, 0
	buf := make([]byte, 256)
	var d rxDatagram
	if n := testing.AllocsPerRun(len(frames)-1, func() {
		u.receive(&d, buf[:copy(buf, frames[i])], simAddr(2))
		if w.frames != i {
			early++
		}
		i++
		u.Cork()
		u.Uncork()
	}); n != 0 {
		t.Errorf("a reliable reception and its wake-up allocate %.0f/op, budget 0 (the datagram's copy is carved from a slab)", n)
	}
	if s := u.Stats(); early != 0 || w.frames != len(frames) || s.AcksSent.Load() != uint64(len(frames)) {
		t.Errorf("%d acks written before the wake-up, %d datagrams, %d acks for %d receptions; want 0 and one ack datagram each",
			early, w.frames, s.AcksSent.Load(), len(frames))
	}
}

// An 8-frame bundle that delivers all eight allocates nothing once
// amortised: each upcall is handed a window on the datagram's copy, and the
// copy is carved from the record's slab.
func TestAllocsBundleReceive(t *testing.T) {
	upcalls := 0
	u, err := newUDP(UDPConfig{ID: 1, Neighbors: neighbors(2), Deliver: func(uint32, []byte) { upcalls++ }}, sim.New(1), &discardWire{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	bundle := eightFrames('a')
	buf := make([]byte, 512)
	var d rxDatagram
	if n := testing.AllocsPerRun(100, func() {
		u.receive(&d, buf[:copy(buf, bundle)], simAddr(2))
	}); n != 0 {
		t.Errorf("a delivered 8-frame bundle allocates %.0f/op, budget 0 (the datagram's copy is carved from a slab)", n)
	}
	if upcalls != 101*8 {
		t.Errorf("%d upcalls, want %d", upcalls, 101*8)
	}
}

// A warm Mesh Send, unicast or broadcast, allocates nothing once
// amortised: each receiver's copy is carved from the sender's slab and
// queued without leaving the mesh lock.
func TestAllocsMeshSend(t *testing.T) {
	m := NewMesh(1)
	defer m.Close()
	l1 := m.Attach(1, nil)
	for id := uint32(2); id <= 4; id++ {
		m.Attach(id, func(uint32, []byte) {})
		m.Connect(1, id)
	}
	payload := make([]byte, 119)
	for _, dst := range []uint32{2, Broadcast} {
		if n := testing.AllocsPerRun(100, func() {
			if err := l1.Send(dst, payload); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Mesh Send to %d allocates %.0f/op", dst, n)
		}
	}
	if s := l1.Stats(); s.Sent.Load() != 101*(1+3) {
		t.Errorf("%d receivers reached, want %d", s.Sent.Load(), 101*(1+3))
	}
}

// Once warm, a window of reliable Sends and the acks that complete them
// allocate nothing: each payload is copied into a buffer an earlier ack
// recycled.
func TestAllocsReliableSendAcked(t *testing.T) {
	w := &discardWire{}
	u, err := newUDP(UDPConfig{ID: 1, Neighbors: neighbors(2), Reliable: &ReliableConfig{}, Deliver: func(uint32, []byte) {}}, sim.New(1), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	window := u.rel.cfg.Window
	buf := make([]byte, 64)
	var d rxDatagram
	seq := uint32(0)
	round := func() {
		for i := 0; i < window; i++ {
			if err := u.Send(2, kib); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < window; i++ {
			seq++
			u.receive(&d, appendFrame(buf[:0], kindAck, 2, 1, 2, seq, 0, 0, nil), simAddr(2))
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a window of %d reliable sends and their acks allocates %.0f/op, budget 0", window, n)
	}
	if want := 102 * window; w.frames != want || u.rel.pending(2) != 0 || len(u.rel.spare) != window {
		t.Errorf("wire saw %d frames, %d pending, %d spare buffers; want %d, 0 and %d", w.frames, u.rel.pending(2), len(u.rel.spare), want, window)
	}
}

// Once warm, a window of custody offers and the held acks that discharge
// them allocate only what the Release owed costs, two per offer: the
// callback's closure and the list of calls owed. Each payload is copied
// into a buffer an earlier ack recycled, and the ID index reuses its room.
func TestAllocsCustodyOfferHeld(t *testing.T) {
	w := &discardWire{}
	released := 0
	u, err := newUDP(UDPConfig{ID: 1, Neighbors: neighbors(2), Deliver: func(uint32, []byte) {},
		Custody: &CustodyOptions{
			Accept:  func(uint32, message.ID, []byte) (bool, bool) { return true, true },
			Release: func(uint32, message.ID) { released++ },
		}}, sim.New(1), w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	window := u.rel.cfg.Window
	buf := make([]byte, 64)
	var d rxDatagram
	seq := uint32(0)
	round := func() {
		for i := 1; i <= window; i++ {
			if err := u.SendCustody(2, message.ID{RandID: 7, PktNum: seq + uint32(i)}, kib); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < window; i++ {
			seq++
			u.receive(&d, appendFrame(buf[:0], kindAck|kindCustodyFlag, 2, 1, 2, seq, 0, 0, nil), simAddr(2))
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != float64(2*window) {
		t.Errorf("a window of %d custody offers and their held acks allocates %.0f/op, budget %d", window, n, 2*window)
	}
	if want := 102 * window; w.frames != want || released != want || u.CustodyPending() != 0 || len(u.rel.spare) != window {
		t.Errorf("wire saw %d frames, %d released, %d pending, %d spare buffers; want %d, %d, 0 and %d",
			w.frames, released, u.CustodyPending(), len(u.rel.spare), want, want, window)
	}
}
