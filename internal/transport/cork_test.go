package transport

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"diffusion/internal/message"
)

// These tests hold the cork to exact counts on simnet_test.go's virtual
// wire: what is on the wire is what n.wire recorded, and time moves only
// when a test says so.

// splitBundle is the tests' own reading of the bundle layout: the frames of
// bundle b, and whether anything but whole frames followed the header.
func splitBundle(b []byte) (frames [][]byte, malformed bool) {
	b = b[bundleHeaderSize:]
	for len(b) >= 2 {
		n := int(b[0])<<8 | int(b[1])
		if n > len(b)-2 {
			break
		}
		frames, b = append(frames, b[2:2+n]), b[2+n:]
	}
	return frames, len(b) > 0 || len(frames) == 0
}

// unbundle splits a well-formed bundle into its frames, failing on anything
// else.
func unbundle(t *testing.T, b []byte) [][]byte {
	t.Helper()
	if !isBundle(b) {
		t.Fatalf("%x is not a bundle", b)
	}
	frames, malformed := splitBundle(b)
	if malformed {
		t.Fatalf("bundle %x is malformed", b)
	}
	return frames
}

// tags is "p0".."p{k-1}", the payloads of k sends.
func tags(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("p%d", i)
	}
	return out
}

func sendAll(t *testing.T, u *UDP, dst uint32, payloads []string) {
	t.Helper()
	for _, p := range payloads {
		if err := u.Send(dst, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorkOneDatagramPerNeighbor(t *testing.T) {
	n := newSimNet(t)
	c2, c3 := &collector{}, &collector{}
	a := n.endpoint(UDPConfig{ID: 1, Neighbors: neighbors(2, 3)})
	n.endpoint(UDPConfig{ID: 2, Neighbors: neighbors(1), Deliver: c2.deliver})
	n.endpoint(UDPConfig{ID: 3, Neighbors: neighbors(1), Deliver: c3.deliver})

	// k sends to one neighbor: one datagram, k deliveries in order.
	a.Cork()
	sendAll(t, a, 2, tags(5))
	if n.frames != 0 {
		t.Fatalf("%d datagrams on the wire before Uncork", n.frames)
	}
	a.Uncork()
	if n.frames != 1 || len(unbundle(t, n.wire[0].b)) != 5 {
		t.Fatalf("5 sends to one neighbor left as %d datagrams", n.frames)
	}
	n.run(10 * time.Millisecond)
	if got, _ := c2.snapshot(); !slices.Equal(got, tags(5)) {
		t.Errorf("neighbor 2 got %q, want %q", got, tags(5))
	}
	if s := a.Stats(); s.Sent.Load() != 1 || s.FramesSent.Load() != 5 {
		t.Errorf("Sent %d FramesSent %d, want 1 and 5", s.Sent.Load(), s.FramesSent.Load())
	}

	// Sends to two neighbors, then two broadcasts: a datagram each, every time.
	a.Cork()
	sendAll(t, a, 2, []string{"x", "y"})
	sendAll(t, a, 3, []string{"z", "w"})
	a.Uncork()
	if n.frames != 3 || n.wire[1].to != simAddr(2) || n.wire[2].to != simAddr(3) {
		t.Fatalf("sends to two neighbors left as %d datagrams", n.frames-1)
	}
	a.Cork()
	sendAll(t, a, Broadcast, []string{"b0", "b1"})
	a.Uncork()
	if n.frames != 5 {
		t.Fatalf("two broadcasts to two neighbors left as %d datagrams, want 2", n.frames-3)
	}
	n.run(10 * time.Millisecond)
	got2, _ := c2.snapshot()
	got3, _ := c3.snapshot()
	if want := []string{"x", "y", "b0", "b1"}; !slices.Equal(got2[5:], want) {
		t.Errorf("neighbor 2 got %q, want %q", got2[5:], want)
	}
	if want := []string{"z", "w", "b0", "b1"}; !slices.Equal(got3, want) {
		t.Errorf("neighbor 3 got %q, want %q", got3, want)
	}
	if s := a.Stats(); s.Sent.Load() != 5 || s.FramesSent.Load() != 13 {
		t.Errorf("Sent %d FramesSent %d, want 5 and 13", s.Sent.Load(), s.FramesSent.Load())
	}
	if len(a.held) != 0 {
		t.Errorf("%d datagrams still held after Uncork", len(a.held))
	}
}

// A lone held frame is the datagram an un-corked Send writes, byte for
// byte: only real coalescing changes the wire.
func TestCorkLoneFrameIsThePlainDatagram(t *testing.T) {
	n := newSimNet(t)
	a, _, _, cb := n.pair(UDPConfig{}, UDPConfig{})
	sendAll(t, a, 2, []string{"alone"})
	a.Cork()
	sendAll(t, a, 2, []string{"alone"})
	a.Uncork()
	if n.frames != 2 || !bytes.Equal(n.wire[0].b, n.wire[1].b) {
		t.Fatalf("held frame went out as %x, un-held as %x", n.wire[1].b, n.wire[0].b)
	}
	if f, err := decodeFrame(n.wire[1].b); err != nil || f.kind != kindData {
		t.Fatalf("held frame is not a plain data frame: %v", err)
	}
	n.run(10 * time.Millisecond)
	if cb.count() != 2 {
		t.Errorf("%d deliveries, want 2", cb.count())
	}
}

// A frame that would take the datagram past bundleMax starts the next one,
// and the full one is on the wire before Uncork.
func TestCorkFullDatagramLeavesAtOnce(t *testing.T) {
	n := newSimNet(t)
	a, _, _, cb := n.pair(UDPConfig{}, UDPConfig{})
	// 11 frames of 106 bytes fill a bundle to the byte.
	payload := bytes.Repeat([]byte{'.'}, 106)
	if got := bundleHeaderSize + 11*(bundlePrefixSize+headerSize+len(payload)); got != bundleMax {
		t.Fatalf("test arithmetic: 11 frames make %d bytes, not bundleMax", got)
	}
	a.Cork()
	for i := 0; i < 11; i++ {
		a.Send(2, payload)
	}
	if n.frames != 0 {
		t.Fatalf("a datagram left before it was full")
	}
	a.Send(2, payload)
	if n.frames != 1 || len(n.wire[0].b) != bundleMax || len(unbundle(t, n.wire[0].b)) != 11 {
		t.Fatalf("after the 12th send: %d datagrams on the wire, want the full one", n.frames)
	}
	a.Uncork()
	if n.frames != 2 || isBundle(n.wire[1].b) {
		t.Fatalf("the 12th frame should leave alone, un-bundled, at Uncork")
	}
	// A frame too long to share travels alone, whole, however it is held.
	big := bytes.Repeat([]byte{'#'}, 3000)
	a.Cork()
	a.Send(2, []byte("before"))
	a.Send(2, big)
	a.Send(2, []byte("after"))
	a.Uncork()
	if n.frames != 5 || isBundle(n.wire[2].b) || isBundle(n.wire[3].b) || isBundle(n.wire[4].b) {
		t.Fatalf("small, oversize, small left as %d datagrams, want 3 plain ones", n.frames-2)
	}
	n.run(10 * time.Millisecond)
	got, _ := cb.snapshot()
	if len(got) != 15 || got[12] != "before" || got[13] != string(big) || got[14] != "after" {
		t.Errorf("%d deliveries, or out of order", len(got))
	}
	if s := a.Stats(); s.Sent.Load() != 5 || s.FramesSent.Load() != 15 {
		t.Errorf("Sent %d FramesSent %d, want 5 and 15", s.Sent.Load(), s.FramesSent.Load())
	}
}

// loopPair is pair on a virtual loopback path, skipped where the host's
// loopback MTU leaves the path no room past bundleMax.
func loopPair(t *testing.T, n *simNet, aCfg, bCfg UDPConfig) (a, b *UDP, cb *collector) {
	t.Helper()
	if loopbackCap() < 2*bundleMax {
		t.Skipf("the loopback path's cap is %d bytes", loopbackCap())
	}
	a, b, _, cb = n.pairAt(loopAddr, aCfg, bCfg)
	return a, b, cb
}

// kib is a 1 KiB payload: one frame of it is under bundleMax, two are over.
var kib = bytes.Repeat([]byte{'k'}, 1024)

// On a loopback path the frame that takes a held datagram past bundleMax
// joins it, and the datagram leaves at once: 1 KiB frames travel two to a
// datagram, before Uncork, where the 10.x path writes each alone.
func TestCorkLoopbackFramesPairUp(t *testing.T) {
	n := newSimNet(t)
	a, _, cb := loopPair(t, n, UDPConfig{}, UDPConfig{})
	a.Cork()
	for i := 1; i <= 8; i++ {
		a.Send(2, kib)
		if n.frames != i/2 {
			t.Fatalf("after %d sends: %d datagrams on the wire, want %d", i, n.frames, i/2)
		}
	}
	a.Uncork()
	if n.frames != 4 || len(a.held) != 0 {
		t.Fatalf("Uncork left %d datagrams on the wire and %d held, want 4 and 0", n.frames, len(a.held))
	}
	for i, d := range n.wire {
		if got := len(unbundle(t, d.b)); got != 2 || len(d.b) != 2*(bundlePrefixSize+headerSize+len(kib))+bundleHeaderSize {
			t.Fatalf("datagram %d: %d frames in %d bytes, want two 1 KiB frames", i, got, len(d.b))
		}
	}
	n.run(10 * time.Millisecond)
	if s := a.Stats(); cb.count() != 8 || s.Sent.Load() != 4 || s.FramesSent.Load() != 8 {
		t.Errorf("%d deliveries, Sent %d FramesSent %d; want 8, 4 and 8", cb.count(), s.Sent.Load(), s.FramesSent.Load())
	}

	eth := newSimNet(t)
	e, _, _, _ := eth.pair(UDPConfig{}, UDPConfig{})
	e.Cork()
	sendAll(t, e, 2, []string{string(kib), string(kib)})
	e.Uncork()
	if eth.frames != 2 || isBundle(eth.wire[0].b) || isBundle(eth.wire[1].b) {
		t.Errorf("on the 10.x path two 1 KiB frames left as %d datagrams, want 2 plain ones", eth.frames)
	}
}

// A lone frame of bundleMax bytes or more is written at once, as the plain
// datagram, where the 10.x path holds it; a bundle of exactly bundleMax
// bytes has not crossed the mark and is held, as on any path.
func TestCorkLoopbackLoneFrameAtMark(t *testing.T) {
	n := newSimNet(t)
	a, _, cb := loopPair(t, n, UDPConfig{}, UDPConfig{})
	a.Cork()
	a.Send(2, make([]byte, bundleMax-headerSize))
	if n.frames != 1 || isBundle(n.wire[0].b) || len(n.wire[0].b) != bundleMax {
		t.Fatalf("a held frame of bundleMax bytes: %d datagrams on the wire, want it alone and plain", n.frames)
	}
	eth := newSimNet(t)
	e, _, _, _ := eth.pair(UDPConfig{}, UDPConfig{})
	e.Cork()
	e.Send(2, make([]byte, bundleMax-headerSize))
	if eth.frames != 0 {
		t.Fatalf("on the 10.x path a lone frame of bundleMax bytes left before Uncork")
	}
	e.Uncork()
	for i := 0; i < 11; i++ { // 11 frames of 106 bytes fill a bundle to the byte
		a.Send(2, make([]byte, 106))
	}
	if n.frames != 1 {
		t.Fatalf("a bundle of exactly bundleMax bytes left before Uncork")
	}
	a.Uncork()
	if n.frames != 2 || len(n.wire[1].b) != bundleMax || len(unbundle(t, n.wire[1].b)) != 11 {
		t.Fatalf("Uncork wrote %d datagrams, want the full bundle", n.frames-1)
	}
	n.run(10 * time.Millisecond)
	if cb.count() != 12 {
		t.Errorf("%d deliveries, want 12", cb.count())
	}
}

// A frame that would take the held datagram past a loopback path's cap
// starts the next one, which, being past bundleMax alone, leaves at once
// too; a frame that fills the cap to the byte joins.
func TestCorkLoopbackCap(t *testing.T) {
	n := newSimNet(t)
	a, _, cb := loopPair(t, n, UDPConfig{}, UDPConfig{})
	small := make([]byte, 100)
	fill := make([]byte, loopbackCap()-bundleHeaderSize-2*(bundlePrefixSize+headerSize)-len(small))
	a.Cork()
	a.Send(2, small)
	a.Send(2, fill)
	if n.frames != 1 || len(n.wire[0].b) != loopbackCap() || len(unbundle(t, n.wire[0].b)) != 2 {
		t.Fatalf("a bundle that fills the cap to the byte: %d datagrams on the wire, want it", n.frames)
	}
	a.Send(2, small)
	a.Send(2, append(fill, 0))
	if n.frames != 3 || isBundle(n.wire[1].b) || isBundle(n.wire[2].b) {
		t.Fatalf("a frame one byte past the cap: %d datagrams on the wire, want 3, the last two plain", n.frames)
	}
	a.Uncork()
	if n.frames != 3 || len(a.held) != 0 {
		t.Fatalf("Uncork wrote %d datagrams and left %d held, want none", n.frames-3, len(a.held))
	}
	n.run(10 * time.Millisecond)
	if cb.count() != 4 {
		t.Errorf("%d deliveries, want 4", cb.count())
	}
}

// A datagram written at the mark leaves nothing held for it: neither the
// Uncork nor the Close after it writes an empty bundle.
func TestCorkLoopbackMarkLeavesNothingHeld(t *testing.T) {
	n := newSimNet(t)
	a, _, cb := loopPair(t, n, UDPConfig{}, UDPConfig{})
	pair := []string{string(kib), string(kib)}
	a.Cork()
	sendAll(t, a, 2, pair)
	a.Uncork()
	a.Cork()
	sendAll(t, a, 2, pair)
	a.Close()
	if n.frames != 2 || len(a.held) != 0 {
		t.Fatalf("%d datagrams on the wire, %d held; want 2 and 0", n.frames, len(a.held))
	}
	for _, d := range n.wire {
		unbundle(t, d.b)
	}
	n.run(10 * time.Millisecond)
	if cb.count() != 4 {
		t.Errorf("%d deliveries, want 4", cb.count())
	}
}

// The frames of one entry pair up too: a timer entry's four retransmissions
// of 1 KiB frames leave as two datagrams, not one of four.
func TestCorkLoopbackRetransmitsPairUp(t *testing.T) {
	n := newSimNet(t)
	a, b, cb := loopPair(t, n, UDPConfig{Reliable: &ReliableConfig{}}, UDPConfig{Reliable: &ReliableConfig{}})
	b.SetLoss(1) // b hears a, a does not hear b's acks
	sendAll(t, a, 2, []string{string(kib), string(kib), string(kib), string(kib)})
	n.run(10 * time.Millisecond)
	b.SetLoss(0)
	sent := a.Stats().Sent.Load()
	a.Cork()
	n.run(250 * time.Millisecond) // the four retransmissions come due at one instant
	if d := a.Stats().Sent.Load() - sent; d != 2 || a.Stats().Retransmits.Load() != 4 {
		t.Fatalf("four retransmissions left as %d datagrams, want 2", d)
	}
	a.Uncork()
	n.run(10 * time.Millisecond)
	if a.rel.pending(2) != 0 || cb.count() != 4 || b.Stats().DupSuppressed.Load() != 4 {
		t.Errorf("pending %d, delivered %d, duplicates %d; want 0, 4, 4", a.rel.pending(2), cb.count(), b.Stats().DupSuppressed.Load())
	}
}

// The cork is the endpoint's, not a goroutine's: an ack the reception entry
// generates while the loop holds the cork leaves with the loop's frames.
func TestCorkHoldsAcksFromTheReader(t *testing.T) {
	n := newSimNet(t)
	a, b, ca, cb := n.pair(UDPConfig{Reliable: &ReliableConfig{}}, UDPConfig{Reliable: &ReliableConfig{}})
	b.Cork()
	sendAll(t, a, 2, []string{"ping"})
	n.run(10 * time.Millisecond)
	if cb.count() != 1 || n.frames != 1 || a.rel.pending(2) != 1 {
		t.Fatalf("delivered %d, %d datagrams, %d pending; want the ack held", cb.count(), n.frames, a.rel.pending(2))
	}
	sendAll(t, b, 1, []string{"pong"})
	b.Uncork()
	if n.frames != 2 {
		t.Fatalf("ack and reply left as %d datagrams, want 1", n.frames-1)
	}
	if f := unbundle(t, n.wire[1].b); len(f) != 2 || f[0][2] != kindAck || f[1][2] != kindReliable {
		t.Fatalf("bundle is not ack then reply")
	}
	n.run(10 * time.Millisecond)
	if a.rel.pending(2) != 0 || ca.count() != 1 {
		t.Errorf("%d pending at a, %d delivered; want the ack and the reply through", a.rel.pending(2), ca.count())
	}
}

// wakeup is one wake-up of u's corking consumer that sends nothing: the
// Cork and Uncork core.Node brackets every reception with.
func wakeup(u *UDP) {
	u.Cork()
	u.Uncork()
}

// acks decodes datagram b's frames, failing unless every one is an ack, and
// returns their sequence numbers.
func acks(t *testing.T, b []byte) []uint32 {
	t.Helper()
	frames := [][]byte{b}
	if isBundle(b) {
		frames = unbundle(t, b)
	}
	var seqs []uint32
	for _, fb := range frames {
		f, err := decodeFrame(fb)
		if err != nil || (f.kind != kindAck && f.kind != kindCustodyAck) {
			t.Fatalf("%x is not an ack (%v)", fb, err)
		}
		seqs = append(seqs, f.seq)
	}
	return seqs
}

// Once its consumer corks, a reception that delivers holds its ack for the
// consumer's Uncork: k reliable frames handed up in one batch go back as one
// datagram of k acks, and the sender's window empties.
func TestCorkHeldAcksShareOneDatagram(t *testing.T) {
	n := newSimNet(t)
	a, b, _, cb := n.pair(UDPConfig{Reliable: &ReliableConfig{}}, UDPConfig{Reliable: &ReliableConfig{}})
	wakeup(b)
	const k = 6
	a.Cork()
	sendAll(t, a, 2, tags(k))
	a.Uncork()
	n.run(n.delay)
	if cb.count() != k || n.frames != 1 {
		t.Fatalf("delivered %d, %d datagrams on the wire; want %d and the bundle alone", cb.count(), n.frames, k)
	}
	wakeup(b)
	if n.frames != 2 || n.wire[1].to != simAddr(1) {
		t.Fatalf("the wake-up wrote %d datagrams, want 1 to the sender", n.frames-1)
	}
	if got, want := acks(t, n.wire[1].b), []uint32{1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("the datagram acks %v, want %v", got, want)
	}
	n.run(n.delay)
	if a.rel.pending(2) != 0 || b.Stats().AcksSent.Load() != k || a.Stats().AcksRecv.Load() != k {
		t.Errorf("pending %d, AcksSent %d, AcksRecv %d; want 0, %d, %d",
			a.rel.pending(2), b.Stats().AcksSent.Load(), a.Stats().AcksRecv.Load(), k, k)
	}
}

// A consumer that corked once and never uncorks again costs each ack one
// RTO, and nothing else: every frame is delivered once, its first
// retransmission is a duplicate, and a reception that delivers nothing is
// acked at once, with no Uncork.
func TestCorkConsumerThatNeverUncorks(t *testing.T) {
	n := newSimNet(t)
	a, b, _, cb := n.pair(UDPConfig{Reliable: &ReliableConfig{}}, UDPConfig{Reliable: &ReliableConfig{}})
	wakeup(b)
	const k = 4
	sendAll(t, a, 2, tags(k))
	n.run(n.delay)
	if cb.count() != k || n.frames != k || len(b.held) != 1 {
		t.Fatalf("delivered %d, %d datagrams, %d held; want %d, %d and the acks held", cb.count(), n.frames, len(b.held), k, k)
	}
	n.run(200 * time.Millisecond) // the default RTO: the k retransmissions arrive
	if n.frames != 3*k {
		t.Fatalf("%d datagrams on the wire, want %d frames, %d retransmissions and %d acks", n.frames, k, k, k)
	}
	for i, d := range n.wire[2*k:] {
		if got := acks(t, d.b); len(got) != 1 || got[0] != uint32(i+1) || d.to != simAddr(1) {
			t.Fatalf("datagram %d after the retransmissions acks %v, want [%d] alone", i, got, i+1)
		}
	}
	n.run(2 * time.Second)
	if got, _ := cb.snapshot(); !slices.Equal(got, tags(k)) {
		t.Errorf("delivered %q, want %q", got, tags(k))
	}
	s := a.Stats()
	if a.rel.pending(2) != 0 || s.Retransmits.Load() != k || s.ReliableDrops.Load() != 0 || b.Stats().DupSuppressed.Load() != k {
		t.Errorf("pending %d, retransmits %d, drops %d, duplicates %d; want 0, %d, 0, %d",
			a.rel.pending(2), s.Retransmits.Load(), s.ReliableDrops.Load(), b.Stats().DupSuppressed.Load(), k, k)
	}
}

// A custody ack is held like any ack of a delivering reception, and it
// still exists only once Accept has returned: an Uncork while Accept runs
// finds nothing to write.
func TestCorkHoldsCustodyAckAfterAccept(t *testing.T) {
	ha, hb := newCustodyHarness(16), newCustodyHarness(16)
	n := newSimNet(t)
	opts := hb.options(time.Second, time.Second)
	var b *UDP
	duringAccept := -1
	accept := opts.Accept
	opts.Accept = func(from uint32, id message.ID, payload []byte) (bool, bool) {
		wakeup(b) // the consumer's wake-up ends while the offer is persisted
		duringAccept = n.frames
		return accept(from, id, payload)
	}
	a, b, _, cb := n.pair(UDPConfig{Custody: ha.options(time.Second, time.Second)}, UDPConfig{Custody: opts})
	wakeup(b)
	ha.offer(t, a, 1)
	n.run(n.delay)
	if duringAccept != 1 || n.frames != 1 || cb.count() != 1 {
		t.Fatalf("%d datagrams during Accept, %d after, %d delivered; want the offer alone and 1", duringAccept, n.frames, cb.count())
	}
	wakeup(b)
	if n.frames != 2 || len(acks(t, n.wire[1].b)) != 1 {
		t.Fatalf("the wake-up wrote %d datagrams, want the custody ack", n.frames-1)
	}
	n.run(n.delay)
	if a.CustodyPending() != 0 || len(ha.released) != 1 {
		t.Errorf("pending %d, released %d; want the offer discharged", a.CustodyPending(), len(ha.released))
	}
}

// Close writes what is held while there is still a wire; Uncork afterwards
// finds nothing, and Send reports ErrClosed as ever.
func TestUncorkAfterClose(t *testing.T) {
	n := newSimNet(t)
	a, _, _, _ := n.pair(UDPConfig{}, UDPConfig{})
	a.Cork()
	sendAll(t, a, 2, []string{"last", "words"})
	a.Close()
	if n.frames != 1 || len(a.held) != 0 {
		t.Fatalf("Close left %d datagrams on the wire and %d held, want 1 and 0", n.frames, len(a.held))
	}
	if err := a.Send(2, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after Close: %v, want ErrClosed", err)
	}
	a.Uncork()
	if n.frames != 1 || len(a.held) != 0 {
		t.Errorf("Uncork after Close wrote %d datagrams, holds %d", n.frames-1, len(a.held))
	}
}

// So are acks held for a consumer's Uncork.
func TestCloseWritesHeldAcks(t *testing.T) {
	n := newSimNet(t)
	a, b, _, _ := n.pair(UDPConfig{Reliable: &ReliableConfig{}}, UDPConfig{Reliable: &ReliableConfig{}})
	wakeup(b)
	sendAll(t, a, 2, tags(3))
	n.run(n.delay)
	b.Close()
	if n.frames != 4 || len(b.held) != 0 || !slices.Equal(acks(t, n.wire[3].b), []uint32{1, 2, 3}) {
		t.Fatalf("Close left %d datagrams on the wire and %d held, want the 3 acks in one", n.frames-3, len(b.held))
	}
	n.run(n.delay)
	if a.rel.pending(2) != 0 {
		t.Errorf("%d frames pending at the sender", a.rel.pending(2))
	}
}

// The impairments run before the cork, frame by frame: a partition or a
// loss draw takes single frames out of a would-be bundle.
func TestCorkImpairmentsDropSingleFrames(t *testing.T) {
	n := newSimNet(t)
	c2 := &collector{}
	a := n.endpoint(UDPConfig{ID: 1, Seed: 5, Neighbors: neighbors(2, 3)})
	n.endpoint(UDPConfig{ID: 2, Neighbors: neighbors(1), Deliver: c2.deliver})
	a.Block(3)
	a.Cork()
	sendAll(t, a, Broadcast, tags(4))
	a.Uncork()
	if n.frames != 1 || n.wire[0].to != simAddr(2) || a.Stats().PartitionDropped.Load() != 4 {
		t.Fatalf("%d datagrams, %d partition drops; want 1 to neighbor 2 and 4", n.frames, a.Stats().PartitionDropped.Load())
	}
	a.SetLoss(0.5)
	a.Cork()
	sendAll(t, a, 2, tags(20))
	a.Uncork()
	lost := int(a.Stats().LossInjected.Load())
	if lost == 0 || lost == 20 || n.frames != 2 {
		t.Fatalf("%d of 20 lost in %d datagrams; want some, in 1", lost, n.frames-1)
	}
	if got := len(unbundle(t, n.wire[1].b)); got != 20-lost {
		t.Errorf("bundle carries %d frames, want the %d that survived", got, 20-lost)
	}
	n.run(10 * time.Millisecond)
	if c2.count() != 4+20-lost {
		t.Errorf("%d deliveries, want %d", c2.count(), 4+20-lost)
	}
}

// A retransmission that travels in a bundle is what it is alone: acked
// again, suppressed as a duplicate, and the frames around it delivered.
func TestCorkRetransmitInsideBundle(t *testing.T) {
	n := newSimNet(t)
	a, b, _, cb := n.pair(UDPConfig{Reliable: &ReliableConfig{}}, UDPConfig{Reliable: &ReliableConfig{}})
	b.SetLoss(1) // b hears a, a does not hear b's acks
	sendAll(t, a, 2, []string{"first"})
	n.run(10 * time.Millisecond)
	if cb.count() != 1 || a.rel.pending(2) != 1 {
		t.Fatalf("delivered %d, pending %d; want 1 and 1", cb.count(), a.rel.pending(2))
	}
	b.SetLoss(0)
	a.Cork()
	n.run(250 * time.Millisecond) // the retransmission comes due inside the cork
	sendAll(t, a, 2, []string{"second"})
	before := n.frames
	a.Uncork()
	if n.frames != before+1 || len(unbundle(t, n.wire[before].b)) != 2 {
		t.Fatalf("retransmission and new frame left as %d datagrams", n.frames-before)
	}
	n.run(10 * time.Millisecond)
	if got, _ := cb.snapshot(); !slices.Equal(got, []string{"first", "second"}) {
		t.Errorf("b delivered %q", got)
	}
	if s := b.Stats(); s.DupSuppressed.Load() != 1 || s.AcksSent.Load() != 2 {
		t.Errorf("DupSuppressed %d AcksSent %d, want 1 and 2", s.DupSuppressed.Load(), s.AcksSent.Load())
	}
	if a.rel.pending(2) != 0 || a.Stats().Retransmits.Load() != 1 {
		t.Errorf("pending %d, retransmits %d; want 0 and 1", a.rel.pending(2), a.Stats().Retransmits.Load())
	}
}

// What the frames before a truncated tail carried stands; the tail is one
// RecvDropped. So is a bundle of nothing, and a bundle inside a bundle.
func TestBundleMalformedTail(t *testing.T) {
	n := newSimNet(t)
	_, b, _, cb := n.pair(UDPConfig{}, UDPConfig{})
	frame := func(p string) []byte { return appendFrame(nil, kindData, 1, 2, 1, 0, 0, 0, []byte(p)) }
	bundle := func(frames ...[]byte) []byte {
		out := []byte{frameMagic, frameVersion, kindBundle}
		for _, f := range frames {
			out = append(out, byte(len(f)>>8), byte(len(f)))
			out = append(out, f...)
		}
		return out
	}
	for _, tc := range []struct {
		name             string
		b                []byte
		delivered, drops int
	}{
		{"well-formed", bundle(frame("a"), frame("b")), 2, 0},
		{"length past the end", append(bundle(frame("a")), 0, 40, 1, 2, 3), 1, 1},
		{"half a length", append(bundle(frame("a")), 0), 1, 1},
		{"no frames", bundle(), 0, 1},
		{"empty inner frame", bundle(frame("a"), nil, frame("b")), 2, 1},
		{"nested bundle", bundle(frame("a"), bundle(frame("x"), frame("y"))), 1, 1},
	} {
		got, drops := cb.count(), b.Stats().RecvDropped.Load()
		b.receive(tc.b, simAddr(1))
		if d, r := cb.count()-got, int(b.Stats().RecvDropped.Load()-drops); d != tc.delivered || r != tc.drops {
			t.Errorf("%s: %d delivered, %d dropped; want %d and %d", tc.name, d, r, tc.delivered, tc.drops)
		}
	}
}

// Over real sockets the loop's cork and the reader goroutine's acks meet
// under the endpoint's lock: a corks, sends and uncorks while its reader
// acknowledges b's traffic. Everything arrives once and every frame is
// acknowledged; run under -race this is the edge's concurrency check.
func TestCorkConcurrentWithReader(t *testing.T) {
	a, b, ca, cb := socketPair(t, UDPConfig{Reliable: &ReliableConfig{}}, UDPConfig{Reliable: &ReliableConfig{}})
	const rounds, burst = 6, 5
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds*burst; i++ {
			if err := b.Send(1, []byte(fmt.Sprintf("b%d", i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for r := 0; r < rounds; r++ {
		a.Cork()
		for i := 0; i < burst; i++ {
			if err := a.Send(2, []byte(fmt.Sprintf("a%d", r*burst+i))); err != nil {
				t.Fatal(err)
			}
		}
		a.Uncork()
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		a.peersMu.Lock()
		b.peersMu.Lock()
		defer a.peersMu.Unlock()
		defer b.peersMu.Unlock()
		return ca.count() == rounds*burst && cb.count() == rounds*burst && a.rel.pending(2) == 0 && b.rel.pending(1) == 0
	}, "both sides to deliver and acknowledge everything")
	if s := a.Stats(); s.FramesSent.Load() < s.Sent.Load() || s.FramesSent.Load() < rounds*burst {
		t.Errorf("a wrote %d frames in %d datagrams", s.FramesSent.Load(), s.Sent.Load())
	}
}
