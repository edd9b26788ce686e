//go:build !race

package transport

import (
	"net"
	"net/netip"
	"testing"

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

	// Toward a loopback address, 8 corked 1 KiB sends leave two to a
	// datagram as they cross bundleMax, and that wake-up is free as well.
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
	if want := 101 * 4; loopbackCap() >= 2*bundleMax && lw.frames != want {
		t.Errorf("wire saw %d datagrams, want %d", lw.frames, want)
	}
}

// A reliable reception handed to a corking consumer, and the consumer's
// wake-up around it, allocate only Deliver's copy: the held ack goes into a
// pooled buffer like any held frame, and leaves in one datagram at Uncork.
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
	if n := testing.AllocsPerRun(len(frames)-1, func() {
		u.receive(frames[i], simAddr(2))
		if w.frames != i {
			early++
		}
		i++
		u.Cork()
		u.Uncork()
	}); n != 1 {
		t.Errorf("a reliable reception and its wake-up allocate %.0f/op, budget 1 (Deliver's copy)", n)
	}
	if s := u.Stats(); early != 0 || w.frames != len(frames) || s.AcksSent.Load() != uint64(len(frames)) {
		t.Errorf("%d acks written before the wake-up, %d datagrams, %d acks for %d receptions; want 0 and one ack datagram each",
			early, w.frames, s.AcksSent.Load(), len(frames))
	}
}
