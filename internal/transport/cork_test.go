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

// bundleOf lays frames out as a bundle.
func bundleOf(frames ...[]byte) []byte {
	out := []byte{frameMagic, frameVersion, kindBundle}
	for _, f := range frames {
		out = append(out, byte(len(f)>>8), byte(len(f)))
		out = append(out, f...)
	}
	return out
}

// unbundle splits a well-formed bundle into its frames, failing on anything
// else.
func unbundle(t testing.TB, b []byte) [][]byte {
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
// loopback MTU leaves the path no room for eight 1 KiB frames.
func loopPair(t *testing.T, n *simNet, aCfg, bCfg UDPConfig) (a, b *UDP, cb *collector) {
	t.Helper()
	if loopbackCap() < eightKiB {
		t.Skipf("the loopback path's cap is %d bytes", loopbackCap())
	}
	a, b, _, cb = n.pairAt(loopAddr, aCfg, bCfg)
	return a, b, cb
}

// kib is a 1 KiB payload: one frame of it is under bundleMax, two are over.
var kib = bytes.Repeat([]byte{'k'}, 1024)

// eightKiB is the size of a bundle of eight kib frames.
var eightKiB = bundleHeaderSize + 8*(bundlePrefixSize+headerSize+len(kib))

// On a loopback path a corked wake-up's 1 KiB frames share one datagram,
// written at Uncork, where the 10.x path, whose cap is bundleMax, writes
// each alone.
func TestCorkLoopbackFramesPairUp(t *testing.T) {
	n := newSimNet(t)
	a, _, cb := loopPair(t, n, UDPConfig{}, UDPConfig{})
	a.Cork()
	for i := 1; i <= 8; i++ {
		a.Send(2, kib)
		if n.frames != 0 {
			t.Fatalf("after %d sends: %d datagrams on the wire, want 0", i, n.frames)
		}
	}
	a.Uncork()
	if n.frames != 1 || len(a.held) != 0 {
		t.Fatalf("Uncork left %d datagrams on the wire and %d held, want 1 and 0", n.frames, len(a.held))
	}
	if got := len(unbundle(t, n.wire[0].b)); got != 8 || len(n.wire[0].b) != eightKiB {
		t.Fatalf("%d frames in %d bytes, want eight 1 KiB frames", got, len(n.wire[0].b))
	}
	n.run(10 * time.Millisecond)
	if s := a.Stats(); cb.count() != 8 || s.Sent.Load() != 1 || s.FramesSent.Load() != 8 {
		t.Errorf("%d deliveries, Sent %d FramesSent %d; want 8, 1 and 8", cb.count(), s.Sent.Load(), s.FramesSent.Load())
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

// A lone frame of bundleMax bytes is held until Uncork and written as the
// plain datagram, as on the 10.x path; so is a bundle of exactly bundleMax
// bytes.
func TestCorkLoopbackLoneFrameAtMark(t *testing.T) {
	n := newSimNet(t)
	a, _, cb := loopPair(t, n, UDPConfig{}, UDPConfig{})
	a.Cork()
	a.Send(2, make([]byte, bundleMax-headerSize))
	if n.frames != 0 {
		t.Fatalf("a held frame of bundleMax bytes left before Uncork")
	}
	a.Uncork()
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
	a.Cork()
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

// capFill is the payload that, after n-1 frames of small, fills a bundle of
// n frames to a loopback path's cap to the byte.
func capFill(n int, small []byte) []byte {
	return make([]byte, loopbackCap()-bundleHeaderSize-n*(bundlePrefixSize+headerSize)-(n-1)*len(small))
}

// A bundle that fills a loopback path's cap to the byte is held until
// Uncork; a frame one byte longer does not fit, so the held bundle is
// written at once and that frame starts the next datagram.
func TestCorkLoopbackCap(t *testing.T) {
	n := newSimNet(t)
	a, _, cb := loopPair(t, n, UDPConfig{}, UDPConfig{})
	small := make([]byte, 100)
	fill := capFill(3, small)
	a.Cork()
	sendAll(t, a, 2, []string{string(small), string(small), string(fill)})
	if n.frames != 0 {
		t.Fatalf("a bundle that fills the cap to the byte left before Uncork")
	}
	a.Uncork()
	if n.frames != 1 || len(n.wire[0].b) != loopbackCap() || len(unbundle(t, n.wire[0].b)) != 3 {
		t.Fatalf("Uncork wrote %d datagrams, want the bundle that fills the cap", n.frames)
	}
	a.Cork()
	sendAll(t, a, 2, []string{string(small), string(small), string(fill) + "!"})
	if n.frames != 2 || len(unbundle(t, n.wire[1].b)) != 2 {
		t.Fatalf("a frame one byte past the cap: %d datagrams on the wire, want the held bundle of 2 written", n.frames-1)
	}
	a.Uncork()
	if n.frames != 3 || isBundle(n.wire[2].b) || len(n.wire[2].b) != headerSize+len(fill)+1 || len(a.held) != 0 {
		t.Fatalf("Uncork wrote %d datagrams and left %d held, want the long frame alone and plain", n.frames-2, len(a.held))
	}
	n.run(10 * time.Millisecond)
	if cb.count() != 6 {
		t.Errorf("%d deliveries, want 6", cb.count())
	}
}

// A datagram written at the path's one mark, its cap, leaves held only the
// frame that did not fit: the Uncork or the Close after it writes that
// frame, and no empty bundle.
func TestCorkLoopbackMarkLeavesNothingHeld(t *testing.T) {
	n := newSimNet(t)
	a, _, cb := loopPair(t, n, UDPConfig{}, UDPConfig{})
	small := make([]byte, 100)
	burst := []string{string(small), string(capFill(2, small)), string(small)}
	a.Cork()
	sendAll(t, a, 2, burst)
	a.Uncork()
	a.Cork()
	sendAll(t, a, 2, burst)
	a.Close()
	if n.frames != 4 || len(a.held) != 0 {
		t.Fatalf("%d datagrams on the wire, %d held; want 4 and 0", n.frames, len(a.held))
	}
	for i, d := range n.wire {
		if bundled := isBundle(d.b); bundled != (i%2 == 0) || !bundled && len(d.b) != headerSize+len(small) {
			t.Fatalf("datagram %d: bundle %v, %d bytes; want bundles at the cap and the small frame alone", i, bundled, len(d.b))
		}
	}
	n.run(10 * time.Millisecond)
	if cb.count() != 6 {
		t.Errorf("%d deliveries, want 6", cb.count())
	}
}

// The frames of one entry are held like any: a timer entry's four
// retransmissions of 1 KiB frames wait for Uncork and leave as one
// datagram.
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
	if d := a.Stats().Sent.Load() - sent; d != 0 || a.Stats().Retransmits.Load() != 4 {
		t.Fatalf("four retransmissions: %d datagrams before Uncork, want 0", d)
	}
	a.Uncork()
	if d := a.Stats().Sent.Load() - sent; d != 1 {
		t.Fatalf("four retransmissions left as %d datagrams, want 1", d)
	}
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
		if err != nil || f.kind&^kindCustodyFlag != kindAck {
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
	if n.frames != k+2 {
		t.Fatalf("%d datagrams on the wire, want %d frames, then their retransmissions in one and its acks in one", n.frames, k)
	}
	if d := n.wire[k]; d.to != simAddr(2) || len(unbundle(t, d.b)) != k {
		t.Fatalf("the retransmissions left as %x, want one bundle of %d to 2", d.b, k)
	}
	if d := n.wire[k+1]; !slices.Equal(acks(t, d.b), []uint32{1, 2, 3, 4}) || d.to != simAddr(1) {
		t.Fatalf("the datagram after the retransmissions acks %v, want [1 2 3 4]", acks(t, d.b))
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

// A datagram is one entry, and an entry's frames to one neighbor leave as
// one datagram, corked or not: a bundle of k acks that frees k queued
// reliable frames puts them on the wire together.
func TestAcksFreeQueuedFramesAsOneDatagram(t *testing.T) {
	n := newSimNet(t)
	const k = 4
	rel := &ReliableConfig{Window: k}
	a, b, _, cb := n.pair(UDPConfig{Reliable: rel}, UDPConfig{Reliable: rel})
	wakeup(b)
	sendAll(t, a, 2, tags(2*k)) // k in flight, k queued
	n.run(n.delay)
	if n.frames != k || cb.count() != k || a.rel.pending(2) != 2*k {
		t.Fatalf("%d datagrams, %d delivered, %d pending; want %d, %d and %d", n.frames, cb.count(), a.rel.pending(2), k, k, 2*k)
	}
	wakeup(b)
	sent := a.Stats().Sent.Load()
	n.run(n.delay)
	if d := n.wire[k]; d.to != simAddr(1) || len(acks(t, d.b)) != k {
		t.Fatalf("the wake-up wrote %x, want one datagram of %d acks", d.b, k)
	}
	if d := a.Stats().Sent.Load() - sent; d != 1 || n.frames != k+2 || len(unbundle(t, n.wire[k+1].b)) != k {
		t.Fatalf("the acks freed %d queued frames in %d datagrams, want 1", k, d)
	}
	n.run(n.delay)
	wakeup(b)
	n.run(n.delay)
	if got, _ := cb.snapshot(); !slices.Equal(got, tags(2*k)) || a.rel.pending(2) != 0 {
		t.Errorf("delivered %q with %d pending, want %q and 0", got, a.rel.pending(2), tags(2*k))
	}
}

// The timer's entry is one too: k retransmissions due at one tick to one
// peer leave as one datagram, and are acked, as duplicates, in one.
func TestRetransmissionsShareOneDatagram(t *testing.T) {
	n := newSimNet(t)
	a, b, _, cb := n.pair(UDPConfig{Reliable: &ReliableConfig{}}, UDPConfig{Reliable: &ReliableConfig{}})
	b.SetLoss(1) // b hears a, a does not hear b's acks
	const k = 4
	sendAll(t, a, 2, tags(k))
	n.run(10 * time.Millisecond)
	b.SetLoss(0)
	sent, acked := a.Stats().Sent.Load(), b.Stats().Sent.Load()
	n.run(200 * time.Millisecond) // the default RTO: the k retransmissions come due at one tick
	if d := a.Stats().Sent.Load() - sent; d != 1 || a.Stats().Retransmits.Load() != k {
		t.Fatalf("%d retransmissions left as %d datagrams, want %d as 1", a.Stats().Retransmits.Load(), d, k)
	}
	if d := b.Stats().Sent.Load() - acked; d != 1 || a.rel.pending(2) != 0 {
		t.Fatalf("their acks left as %d datagrams with %d pending, want 1 and 0", d, a.rel.pending(2))
	}
	if cb.count() != k || b.Stats().DupSuppressed.Load() != k {
		t.Errorf("delivered %d, duplicates %d; want %d and %d", cb.count(), b.Stats().DupSuppressed.Load(), k, k)
	}
}

// bundleAroundOffer is a bundle from 1 to 2 of a reliable frame "first", a
// custody offer of custodyPayload(2) and a reliable frame "last", at
// sequence numbers 1 to 3, and the offer's payload.
func bundleAroundOffer() (bundle, offer []byte) {
	offer, _ = custodyPayload(2)
	return bundleOf(
		appendFrame(nil, kindReliable, 1, 2, 1, 1, 0, 0, []byte("first")),
		appendFrame(nil, kindReliable|kindCustodyFlag, 1, 2, 1, 2, 0, 0, offer),
		appendFrame(nil, kindReliable, 1, 2, 1, 3, 0, 0, []byte("last")),
	), offer
}

// acceptAfter is custody options over a fresh harness that run hook before
// each Accept.
func acceptAfter(hook func()) *CustodyOptions {
	opts := newCustodyHarness(16).options(time.Second, time.Second)
	accept := opts.Accept
	opts.Accept = func(from uint32, id message.ID, payload []byte) (bool, bool) {
		hook()
		return accept(from, id, payload)
	}
	return opts
}

// Accept runs with the lock released, so a custody offer splits its
// datagram's entry: what the frames before it owe is written and delivered
// first, Accept runs, and the entry it opens acks and delivers the offer
// and takes the frames after it. All three frames are delivered in frame
// order and acked, in two datagrams.
func TestBundleAroundCustodyOfferInFrameOrder(t *testing.T) {
	n := newSimNet(t)
	bundle, offer := bundleAroundOffer()
	var log []string
	opts := acceptAfter(func() { log = append(log, fmt.Sprintf("accept after %d datagrams", n.frames)) })
	b := n.endpoint(UDPConfig{ID: 2, Neighbors: neighbors(1), Reliable: &ReliableConfig{}, Custody: opts,
		Deliver: func(_ uint32, p []byte) {
			if bytes.Equal(p, offer) {
				p = []byte("offer")
			}
			log = append(log, "deliver "+string(p))
		}})
	b.receive(new(rxDatagram), bundle, simAddr(1))
	if want := []string{"deliver first", "accept after 1 datagrams", "deliver offer", "deliver last"}; !slices.Equal(log, want) {
		t.Fatalf("the bundle made %q, want %q", log, want)
	}
	var seqs []uint32
	for _, d := range n.wire {
		seqs = append(seqs, acks(t, d.b)...)
	}
	if n.frames != 2 || !slices.Equal(seqs, []uint32{1, 2, 3}) {
		t.Fatalf("%d datagrams acked %v, want 2 acking [1 2 3]", n.frames, seqs)
	}
	if s := b.Stats(); s.AcksSent.Load() != 2 || s.CustodyAcksSent.Load() != 1 || s.Recv.Load() != 3 {
		t.Errorf("AcksSent %d, CustodyAcksSent %d, Recv %d; want 2, 1 and 3", s.AcksSent.Load(), s.CustodyAcksSent.Load(), s.Recv.Load())
	}
}

// Close returns while a bundle's entry is in progress — from inside the
// Accept its custody offer waits on — and the entry then owes nothing more:
// neither the offer nor the frames after it are acked or delivered.
func TestCloseDuringBundle(t *testing.T) {
	n := newSimNet(t)
	bundle, _ := bundleAroundOffer()
	var b *UDP
	closed := false
	opts := acceptAfter(func() { closed = b.Close() == nil })
	got := &collector{}
	b = n.endpoint(UDPConfig{ID: 2, Neighbors: neighbors(1), Reliable: &ReliableConfig{}, Custody: opts, Deliver: got.deliver})
	b.receive(new(rxDatagram), bundle, simAddr(1))
	if g, _ := got.snapshot(); !closed || !slices.Equal(g, []string{"first"}) || n.frames != 1 {
		t.Errorf("closed %v, delivered %q in %d datagrams; want true, [first] and 1", closed, g, n.frames)
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
	a.SetBlocked([]uint32{3})
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
	for _, tc := range []struct {
		name             string
		b                []byte
		delivered, drops int
	}{
		{"well-formed", bundleOf(frame("a"), frame("b")), 2, 0},
		{"length past the end", append(bundleOf(frame("a")), 0, 40, 1, 2, 3), 1, 1},
		{"half a length", append(bundleOf(frame("a")), 0), 1, 1},
		{"no frames", bundleOf(), 0, 1},
		{"empty inner frame", bundleOf(frame("a"), nil, frame("b")), 2, 1},
		{"nested bundle", bundleOf(frame("a"), bundleOf(frame("x"), frame("y"))), 1, 1},
	} {
		got, drops := cb.count(), b.Stats().RecvDropped.Load()
		b.receive(new(rxDatagram), tc.b, simAddr(1))
		if d, r := cb.count()-got, int(b.Stats().RecvDropped.Load()-drops); d != tc.delivered || r != tc.drops {
			t.Errorf("%s: %d delivered, %d dropped; want %d and %d", tc.name, d, r, tc.delivered, tc.drops)
		}
	}
}

// eightFrames is a bundle from neighbor 2 to 1 of eight data frames whose
// payloads, 10 to 17 bytes long, are each one byte repeated: tag, tag+1, ….
func eightFrames(tag byte) []byte {
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = appendFrame(nil, kindData, 2, 1, 2, 0, 0, 0, bytes.Repeat([]byte{tag + byte(i)}, 10+i))
	}
	return bundleOf(frames...)
}

// The frames of one datagram are delivered as windows on its one copy. Fed
// through one reused buffer and record, as the reader feeds it, an 8-frame
// bundle makes 8 upcalls whose payloads are capacity-clipped and stay as
// they arrived when the buffer carries the next datagram, and when the
// payload before each is appended to. (TestAllocsBundleReceive holds the
// copy to one allocation.)
func TestBundleDeliversWindowsOnOneCopy(t *testing.T) {
	n, got := newSimNet(t), &collector{}
	u := n.endpoint(UDPConfig{ID: 1, Neighbors: neighbors(2), Deliver: got.deliver})
	buf := make([]byte, 512)
	var d rxDatagram
	u.receive(&d, buf[:copy(buf, eightFrames('a'))], simAddr(2))
	if len(got.held) != 8 {
		t.Fatalf("%d upcalls, want 8", len(got.held))
	}
	first := slices.Clone(got.got)
	for i, p := range got.held {
		if want := string(bytes.Repeat([]byte{'a' + byte(i)}, 10+i)); string(p) != want || cap(p) != len(p) {
			t.Fatalf("payload %d is %q with cap %d, want %q with cap %d", i, p, cap(p), want, len(want))
		}
	}
	u.receive(&d, buf[:copy(buf, eightFrames('A'))], simAddr(2))
	for i := range got.held[:8] {
		if string(got.held[i]) != first[i] {
			t.Fatalf("payload %d reads %q once the buffer held the next datagram, was %q", i, got.held[i], first[i])
		}
	}
	for i := 0; i < 7; i++ {
		_ = append(got.held[i], "scribble"...)
		if string(got.held[i+1]) != first[i+1] {
			t.Fatalf("an append to payload %d turned payload %d into %q", i, i+1, got.held[i+1])
		}
	}
	if len(got.held) != 16 || got.got[8] != "AAAAAAAAAA" {
		t.Fatalf("the second bundle made %d upcalls, the first %q; want 8 and %q", len(got.held)-8, got.got[8], "AAAAAAAAAA")
	}
}

// Deliver's payloads are carved from the receiving link's slab, and each
// stays as it arrived for as long as the callee keeps it. On both
// transports, across several slab turnovers with two payloads larger than a
// slab among them, every kept payload still reads as it did when it was
// handed over, and an append to each, long enough to cross into the next,
// leaves the next alone. A payload larger than a slab is copied on its own:
// the slab before it goes on being carved after it. UDP is fed as the
// reader feeds it, through one reused buffer and record.
func TestDeliveredWindowsOutliveSlabTurnovers(t *testing.T) {
	n, viaUDP := newSimNet(t), &collector{}
	u := n.endpoint(UDPConfig{ID: 1, Neighbors: neighbors(2), Deliver: viaUDP.deliver})
	buf := make([]byte, maxPayload+headerSize)
	var d rxDatagram
	m, viaMesh := NewMesh(1), &collector{arrived: make(chan struct{}, 1)}
	defer m.Close()
	l1 := m.Attach(1, nil)
	m.Attach(2, viaMesh.deliver)
	m.Connect(1, 2)
	for _, tc := range []struct {
		name    string
		got     *collector
		receive func(p []byte) *slab // hands p over, returns the slab it was carved from
	}{
		{"udp", viaUDP, func(p []byte) *slab {
			u.receive(&d, buf[:copy(buf, appendFrame(nil, kindData, 2, 1, 2, 0, 0, 0, p))], simAddr(2))
			return &d.slab
		}},
		{"mesh", viaMesh, func(p []byte) *slab {
			if err := l1.Send(2, p); err != nil {
				t.Fatal(err)
			}
			viaMesh.next(t, "a mesh delivery")
			return &l1.slab
		}},
	} {
		held := func(i int) []byte { tc.got.mu.Lock(); defer tc.got.mu.Unlock(); return tc.got.held[i] }
		slabs, slabStart := 0, (*byte)(nil)
		for i := 0; i < 40; i++ {
			size := 1500 + 97*i
			big := i == 20 || i == 21
			if big {
				size = slabSize + 1000*(i-19)
			}
			s := tc.receive(bytes.Repeat([]byte{byte(i)}, size))
			if big && &(*s)[0] != slabStart {
				t.Errorf("%s: payload %d, %d bytes, started a slab", tc.name, i, size)
			}
			if tc.got.count() != i+1 || len(held(i)) != size || cap(held(i)) != size {
				t.Fatalf("%s reception %d: %d upcalls, the last %d bytes with cap %d; want %d, %d and %d",
					tc.name, i, tc.got.count(), len(held(i)), cap(held(i)), i+1, size, size)
			}
			if &(*s)[0] != slabStart {
				slabs, slabStart = slabs+1, &(*s)[0]
			}
			if i > 0 {
				_ = append(held(i-1), bytes.Repeat([]byte{0xEE}, headerSize+size)...)
				if !bytes.Equal(held(i), bytes.Repeat([]byte{byte(i)}, size)) {
					t.Fatalf("%s: an append to payload %d reached payload %d", tc.name, i-1, i)
				}
			}
		}
		for i := 0; i < 40; i++ {
			if p := held(i); !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, len(p))) {
				t.Errorf("%s: kept payload %d changed in the %d receptions after it", tc.name, i, 39-i)
			}
		}
		if slabs < 4 {
			t.Errorf("%s: %d slabs were used, want at least 4", tc.name, slabs)
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
