package rt_test

import (
	"net"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/rt"
	"diffusion/internal/transport"
)

// udpLine is a line of rt.Stacks over loopback UDP sockets — cmd/diffnode's
// wiring — with a sink subscribed at one end and a publication at the
// other. Set-up is driven by events, not sleeps.
type udpLine struct {
	stacks []*rt.Stack
	pub    core.PublicationHandle
	seq    int32
	// payload, when set, rides in every event sent from then on.
	payload []byte
	got     chan message.Class // one per delivery at the sink
	// onDeliver, when set, is handed each delivery on the sink's loop.
	onDeliver func(*message.Message)
}

// lineSeenTTL is cmd/diffbench's: the duplicate cache tracks flight time,
// not run length.
const lineSeenTTL = 2 * time.Second

// newUDPLine builds the line, every link with reliable unicast when rel is
// set.
func newUDPLine(tb testing.TB, n int, interestInterval time.Duration, rel *transport.ReliableConfig) *udpLine {
	tb.Helper()
	ports := freePorts(tb, n)
	ln := &udpLine{got: make(chan message.Class, 1024)}
	for i := 0; i < n; i++ {
		c := lineConfig(ports, i)
		c.Link.Reliable = rel
		c.Node.InterestInterval = interestInterval
		c.Node.ExploratoryInterval = time.Hour // only the first send explores
		c.Node.ForwardJitter = time.Millisecond
		c.Node.SeenTTL = lineSeenTTL
		ln.stacks = append(ln.stacks, newStack(tb, c))
	}
	tb.Cleanup(func() {
		for _, st := range ln.stacks {
			st.Close()
		}
	})

	sink, src := ln.stacks[n-1], ln.stacks[0]
	sink.Loop.Call(func() {
		sink.Node.Subscribe(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "line")},
			func(m *message.Message) {
				if ln.onDeliver != nil {
					ln.onDeliver(m)
				}
				ln.got <- m.Class
			})
	})
	ready := make(chan struct{}, 1)
	src.Loop.Call(func() {
		tap := attr.Vec{
			attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest),
			attr.StringAttr(attr.KeyTask, attr.IS, "line"),
		}
		src.Node.Subscribe(tap, func(*message.Message) {
			select {
			case ready <- struct{}{}:
			default:
			}
		})
		ln.pub = src.Node.Publish(attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "line")})
	})
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		tb.Fatal("the interest never reached the source")
	}
	// Offer events until one arrives as plain Data: the first explored and
	// the sink's reinforcement is back.
	for deadline := time.Now().Add(10 * time.Second); ; {
		ln.send(1)
		select {
		case c := <-ln.got:
			if c == message.Data {
				return ln
			}
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			tb.Fatal("no event crossed the line over a reinforced path")
		}
	}
}

// send publishes k events from one callback on the source's loop: one
// wake-up, k transmissions.
func (ln *udpLine) send(k int) {
	src := ln.stacks[0]
	src.Loop.Post(func() {
		for i := 0; i < k; i++ {
			ln.seq++
			attrs := attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, ln.seq)}
			if ln.payload != nil {
				attrs = append(attrs, attr.BlobAttr(attr.KeyPayload, attr.IS, ln.payload))
			}
			src.Node.Send(ln.pub, attrs)
		}
	})
}

// sent sums the endpoints' own datagram, frame and ack counters.
func (ln *udpLine) sent() (datagrams, frames, acks uint64) {
	for _, st := range ln.stacks {
		datagrams += st.Link.Stats().Sent.Load()
		frames += st.Link.Stats().FramesSent.Load()
		acks += st.Link.Stats().AcksSent.Load()
	}
	return datagrams, frames, acks
}

// A burst published in one wake-up leaves the source as one datagram and
// reaches the sink whole, over real sockets: core.NewNode found the loop's
// Defer and the endpoint's Cork by itself.
func TestLiveUDPBurstIsOneDatagram(t *testing.T) { liveBurst(t, nil, 0, 1) }

// On a loopback path a wake-up's 1 KiB frames share a datagram up to the
// path's cap: a burst of eight reliable ones leaves the source as one.
func TestLiveReliable1KBurstIsOneDatagram(t *testing.T) {
	liveBurst(t, &transport.ReliableConfig{}, 1024, 1)
}

// liveBurst publishes 8 events of the given payload in one wake-up of a
// 3-node line and wants them to leave the source as the given number of
// datagrams.
func liveBurst(t *testing.T, rel *transport.ReliableConfig, payload int, want uint64) {
	ln := newUDPLine(t, 3, time.Minute, rel) // no interest refresh while the test counts
	time.Sleep(20 * time.Millisecond)        // the set-up's last frames leave the line
	for len(ln.got) > 0 {
		<-ln.got
	}
	if payload > 0 {
		ln.stacks[0].Loop.Call(func() { ln.payload = make([]byte, payload) }) // the source's loop reads it
	}
	src := ln.stacks[0].Link.Stats()
	datagrams, frames := src.Sent.Load(), src.FramesSent.Load()
	const burst = 8
	ln.send(burst)
	waitEvents(t, ln, burst)
	ln.stacks[0].Loop.Call(func() {}) // the source's loop is past the wake-up, and so past counting what it wrote
	if d, f := src.Sent.Load()-datagrams, src.FramesSent.Load()-frames; d != want || f != burst {
		t.Errorf("the burst left the source as %d datagrams of %d frames, want %d of %d", d, f, want, burst)
	}
	for i, st := range ln.stacks {
		if s := st.Link.Stats(); s.RecvDropped.Load() != 0 || s.SendErrors.Load() != 0 {
			t.Errorf("node %d dropped %d receptions and failed %d writes", i+1, s.RecvDropped.Load(), s.SendErrors.Load())
		}
	}
}

// loopbackCap is the transport's cap on a loopback datagram, computed as
// udp.go's loopbackCap does: the loopback interface's MTU less the IPv6 and
// UDP headers, at least 1400 bytes and at most a reader's buffer (a 60 KiB
// payload, the 19-byte header and the 3-byte trace extension).
func loopbackCap(tb testing.TB) int {
	ifs, _ := net.Interfaces()
	for _, ifc := range ifs {
		if ifc.Flags&net.FlagLoopback != 0 {
			return min(max(ifc.MTU-48, 1400), 60*1024+19+3)
		}
	}
	tb.Skip("no loopback interface")
	return 0
}

// A burst of reliable 1 KiB frames larger than a loopback path's cap,
// published in one wake-up, leaves the source as the fewest datagrams of
// at most the cap that carry its whole frames, each a bundle (a 3-byte
// header, then per frame a 2-byte length and the frame; the frames are of
// one size, which the bytes written give). Every event reaches the sink
// once and in order, and no endpoint drops a reception, fails a write or
// retransmits.
func TestLiveReliableBurstOverTheCap(t *testing.T) {
	capBytes := loopbackCap(t)
	const burst = 64 // the most a reliable window puts in flight at once
	ln := newUDPLine(t, 2, time.Minute, &transport.ReliableConfig{Window: burst})
	time.Sleep(20 * time.Millisecond) // the set-up's last frames leave the line
	for len(ln.got) > 0 {
		<-ln.got
	}
	var seqs []int32
	ln.stacks[1].Loop.Call(func() {
		ln.onDeliver = func(m *message.Message) {
			a, _ := m.Attrs.FindActual(attr.KeySequence)
			seqs = append(seqs, a.Val.Int32())
		}
	})
	src := ln.stacks[0].Link.Stats()
	var first int32
	ln.stacks[0].Loop.Call(func() { ln.payload, first = make([]byte, 1024), ln.seq+1 })
	datagrams, frames, sentBytes := src.Sent.Load(), src.FramesSent.Load(), src.SentBytes.Load()
	ln.send(burst)
	waitEvents(t, ln, burst)
	ln.stacks[0].Loop.Call(func() {}) // the source's loop is past the wake-up, and so past counting what it wrote
	d, f, b := src.Sent.Load()-datagrams, src.FramesSent.Load()-frames, src.SentBytes.Load()-sentBytes
	frame := (b-3*d)/burst - 2
	if 3+burst*(2+frame) <= uint64(capBytes) {
		t.Skipf("the loopback path's cap, %d bytes, holds the whole burst", capBytes)
	}
	perDatagram := (uint64(capBytes) - 3) / (2 + frame)
	if want := (burst + perDatagram - 1) / perDatagram; d != want || f != burst || (b-3*d)%burst != 0 {
		t.Errorf("%d frames left as %d datagrams of %d frames, %d bytes; want %d bundles of frames of one size, at most %d bytes each",
			burst, d, f, b, want, capBytes)
	}
	var got []int32
	ln.stacks[1].Loop.Call(func() { got = seqs })
	for i, seq := range got {
		if seq != first+int32(i) {
			t.Fatalf("the sink got events %v, want %d in order from %d", got, burst, first)
		}
	}
	if len(got) != burst {
		t.Errorf("the sink got %d events, want %d", len(got), burst)
	}
	for i, st := range ln.stacks {
		if s := st.Link.Stats(); s.RecvDropped.Load() != 0 || s.SendErrors.Load() != 0 || s.Retransmits.Load() != 0 {
			t.Errorf("node %d dropped %d receptions, failed %d writes and retransmitted %d frames",
				i+1, s.RecvDropped.Load(), s.SendErrors.Load(), s.Retransmits.Load())
		}
	}
}

// waitEvents waits for k deliveries at the line's sink.
func waitEvents(t *testing.T, ln *udpLine, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		select {
		case <-ln.got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d events arrived", i, k)
		}
	}
}

// A burst sent in one wake-up is acknowledged in one datagram: the sink's
// receptions of it make one wake-up, whose Uncork writes the acks the
// socket reader held. The sink's loop is kept busy until the reader has
// handed up the whole burst, so that the receptions are one wake-up however
// the goroutines are scheduled.
func TestLiveReliableBurstAcksOnce(t *testing.T) {
	ln := newUDPLine(t, 2, time.Minute, &transport.ReliableConfig{})
	time.Sleep(20 * time.Millisecond) // the set-up's last frames leave the line
	for len(ln.got) > 0 {
		<-ln.got
	}
	src, sink := ln.stacks[0].Link.Stats(), ln.stacks[1].Link.Stats()
	acksRecv, recv := src.AcksRecv.Load(), sink.Recv.Load()
	datagrams, frames, acks := sink.Sent.Load(), sink.FramesSent.Load(), sink.AcksSent.Load()

	const burst = 8
	busy, release := make(chan struct{}), make(chan struct{})
	ln.stacks[1].Loop.Post(func() { close(busy); <-release })
	<-busy
	ln.send(burst)
	for deadline := time.Now().Add(5 * time.Second); sink.Recv.Load()-recv < burst; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("the sink's reader handed up %d of %d frames", sink.Recv.Load()-recv, burst)
		}
	}
	if d := sink.Sent.Load() - datagrams; d != 0 {
		t.Errorf("the sink wrote %d datagrams before its loop woke, want its acks held", d)
	}
	close(release)
	waitEvents(t, ln, burst)
	ln.stacks[1].Loop.Call(func() {}) // the sink's loop is past the wake-up, and so past its Uncork
	d, f, a := sink.Sent.Load()-datagrams, sink.FramesSent.Load()-frames, sink.AcksSent.Load()-acks
	if d != 1 || f != burst || a != burst {
		t.Errorf("the sink acked the burst in %d datagrams of %d frames (%d acks), want 1 of %d", d, f, a, burst)
	}
	for deadline := time.Now().Add(5 * time.Second); src.AcksRecv.Load()-acksRecv < burst; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the source heard %d of %d acks", src.AcksRecv.Load()-acksRecv, burst)
		}
	}
}

// benchLine is cmd/diffbench's phase T in miniature — five hops, 32 events
// in flight — reporting what the frozen benchmark's traced run cannot:
// datagrams, frames and acks per event from the endpoints' own Stats, with
// the links corked as they are in a daemon.
func benchLine(b *testing.B, rel *transport.ReliableConfig, payload int) {
	ln := newUDPLine(b, 6, time.Second, rel)
	if payload > 0 {
		ln.payload = make([]byte, payload)
	}
	const window = 32
	datagrams, frames, acks := ln.sent()
	// One timer, reset per arrival: a time.After per wait would put its
	// allocations into -benchmem's count.
	stall := time.NewTimer(5 * time.Second)
	defer stall.Stop()
	b.ResetTimer()
	for offered, arrived := 0, 0; arrived < b.N; {
		for offered < b.N && offered-arrived < window {
			ln.send(1)
			offered++
		}
		select {
		case <-ln.got:
			arrived++
			stall.Reset(5 * time.Second)
		case <-stall.C:
			b.Fatalf("%d of %d events arrived", arrived, offered)
		}
	}
	b.StopTimer()
	d, f, a := ln.sent()
	b.ReportMetric(float64(d-datagrams)/float64(b.N), "datagrams/event")
	b.ReportMetric(float64(f-frames)/float64(b.N), "frames/event")
	b.ReportMetric(float64(a-acks)/float64(b.N), "acks/event")
}

// BenchmarkLiveLineUDP is line5_udp's shape: fire-and-forget unicast.
func BenchmarkLiveLineUDP(b *testing.B) { benchLine(b, nil, 0) }

// BenchmarkLiveLineReliable1K is line5_reliable_1k's: reliable unicast and a
// 1 KiB payload. On loopback a wake-up's data frames share a datagram up to
// the path's cap, and its acks share one too.
func BenchmarkLiveLineReliable1K(b *testing.B) { benchLine(b, &transport.ReliableConfig{}, 1024) }
