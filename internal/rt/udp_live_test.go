package rt_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/chaos"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/rt"
	"diffusion/internal/transport"
)

// udpLine is a line of diffusion nodes over loopback UDP sockets, each on
// its own loop — cmd/diffnode's wiring — with a sink subscribed at one end
// and a publication at the other. Set-up is driven by events, not sleeps.
type udpLine struct {
	loops []*rt.Loop
	nodes []*core.Node
	links []*transport.UDP
	pub   core.PublicationHandle
	seq   int32
	// payload, when set, rides in every event sent from then on.
	payload []byte
	got     chan message.Class // one per delivery at the sink
}

// newUDPLine builds the line, every link with reliable unicast when rel is
// set.
func newUDPLine(tb testing.TB, n int, interestInterval time.Duration, rel *transport.ReliableConfig) *udpLine {
	tb.Helper()
	ports, err := chaos.FreePorts("udp", n)
	if err != nil {
		tb.Fatal(err)
	}
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }
	ln := &udpLine{nodes: make([]*core.Node, n), got: make(chan message.Class, 1024)}
	for i := 0; i < n; i++ {
		i, loop := i, rt.NewLoop()
		neighbors := map[uint32]string{}
		if i > 0 {
			neighbors[uint32(i)] = addr(i - 1)
		}
		if i < n-1 {
			neighbors[uint32(i+2)] = addr(i + 1)
		}
		link, err := transport.ListenUDP(transport.UDPConfig{
			ID: uint32(i + 1), Listen: addr(i), Neighbors: neighbors, Seed: int64(i), Reliable: rel,
			Deliver: func(from uint32, payload []byte) {
				loop.Post(func() { ln.nodes[i].Receive(from, payload) })
			},
		})
		if err != nil {
			tb.Fatal(err)
		}
		loop.Call(func() {
			ln.nodes[i] = core.NewNode(core.Config{
				Clock:               loop,
				Rand:                rand.New(rand.NewSource(int64(i))),
				Link:                link,
				InterestInterval:    interestInterval,
				ExploratoryInterval: time.Hour, // only the first send explores
				ForwardJitter:       time.Millisecond,
				SeenTTL:             2 * time.Second, // cmd/diffbench's: the cache tracks flight time, not run length
			})
		})
		ln.loops, ln.links = append(ln.loops, loop), append(ln.links, link)
	}
	tb.Cleanup(func() {
		for i, l := range ln.loops {
			ln.links[i].Close()
			l.Stop()
		}
	})

	ln.loops[n-1].Call(func() {
		ln.nodes[n-1].Subscribe(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "line")},
			func(m *message.Message) { ln.got <- m.Class })
	})
	ready := make(chan struct{}, 1)
	ln.loops[0].Call(func() {
		tap := attr.Vec{
			attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest),
			attr.StringAttr(attr.KeyTask, attr.IS, "line"),
		}
		ln.nodes[0].Subscribe(tap, func(*message.Message) {
			select {
			case ready <- struct{}{}:
			default:
			}
		})
		ln.pub = ln.nodes[0].Publish(attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "line")})
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
	ln.loops[0].Post(func() {
		for i := 0; i < k; i++ {
			ln.seq++
			attrs := attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, ln.seq)}
			if ln.payload != nil {
				attrs = append(attrs, attr.BlobAttr(attr.KeyPayload, attr.IS, ln.payload))
			}
			ln.nodes[0].Send(ln.pub, attrs)
		}
	})
}

// sent sums the endpoints' own datagram, frame and ack counters.
func (ln *udpLine) sent() (datagrams, frames, acks uint64) {
	for _, l := range ln.links {
		datagrams += l.Stats().Sent.Load()
		frames += l.Stats().FramesSent.Load()
		acks += l.Stats().AcksSent.Load()
	}
	return datagrams, frames, acks
}

// A burst published in one wake-up leaves the source as one datagram and
// reaches the sink whole, over real sockets: core.NewNode found the loop's
// Defer and the endpoint's Cork by itself.
func TestLiveUDPBurstIsOneDatagram(t *testing.T) { liveBurst(t, nil, 0, 1) }

// On a loopback path 1 KiB frames travel two to a datagram: a burst of
// eight reliable ones leaves the source as four, each written as its second
// frame crosses bundleMax.
func TestLiveReliable1KBurstPairsUp(t *testing.T) {
	liveBurst(t, &transport.ReliableConfig{}, 1024, 4)
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
		ln.loops[0].Call(func() { ln.payload = make([]byte, payload) }) // the source's loop reads it
	}
	src := ln.links[0].Stats()
	datagrams, frames := src.Sent.Load(), src.FramesSent.Load()
	const burst = 8
	ln.send(burst)
	for i := 0; i < burst; i++ {
		select {
		case <-ln.got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d events arrived", i, burst)
		}
	}
	ln.loops[0].Call(func() {}) // the source's loop is past the wake-up, and so past counting what it wrote
	if d, f := src.Sent.Load()-datagrams, src.FramesSent.Load()-frames; d != want || f != burst {
		t.Errorf("the burst left the source as %d datagrams of %d frames, want %d of %d", d, f, want, burst)
	}
	for i, l := range ln.links {
		if s := l.Stats(); s.RecvDropped.Load() != 0 || s.SendErrors.Load() != 0 {
			t.Errorf("node %d dropped %d receptions and failed %d writes", i+1, s.RecvDropped.Load(), s.SendErrors.Load())
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
	src, sink := ln.links[0].Stats(), ln.links[1].Stats()
	acksRecv, recv := src.AcksRecv.Load(), sink.Recv.Load()
	datagrams, frames, acks := sink.Sent.Load(), sink.FramesSent.Load(), sink.AcksSent.Load()

	const burst = 8
	busy, release := make(chan struct{}), make(chan struct{})
	ln.loops[1].Post(func() { close(busy); <-release })
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
	for i := 0; i < burst; i++ {
		select {
		case <-ln.got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d events arrived", i, burst)
		}
	}
	ln.loops[1].Call(func() {}) // the sink's loop is past the wake-up, and so past its Uncork
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
	b.ResetTimer()
	for offered, arrived := 0, 0; arrived < b.N; {
		for offered < b.N && offered-arrived < window {
			ln.send(1)
			offered++
		}
		select {
		case <-ln.got:
			arrived++
		case <-time.After(5 * time.Second):
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
// 1 KiB payload. On loopback two data frames share a datagram, the second
// taking it past bundleMax, and the acks of a wake-up share one too.
func BenchmarkLiveLineReliable1K(b *testing.B) { benchLine(b, &transport.ReliableConfig{}, 1024) }
