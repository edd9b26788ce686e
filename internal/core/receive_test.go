package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/custody"
	"diffusion/internal/message"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
)

// Receive decodes every payload into one message per node and hands the
// core a view of the payload's own bytes, which the node only borrows; Send
// builds every event in one message per node too. These tests cover the ways
// either message could reach somebody who outlives it; alloc_test.go holds
// the budgets.

// lender is the receiving half of a link that lends, as the MAC does: it
// hands every reception to Receive in one buffer and overwrites that with
// 0xDB once Receive returns, so a window kept past the call reads 0xDB.
type lender struct{ buf []byte }

func (l *lender) receive(n *Node, from uint32, payload []byte) {
	l.buf = append(l.buf[:0], payload...)
	n.Receive(from, l.buf)
	for i := range l.buf {
		l.buf[i] = 0xDB
	}
}

// countLink is a Link that counts what it is handed and keeps none of it.
type countLink struct {
	id    uint32
	sends int
}

func (l *countLink) ID() uint32 { return l.id }
func (l *countLink) Send(uint32, []byte) error {
	l.sends++
	return nil
}

var (
	// lineTask is what a sink subscribes to, lineInterest its wire form.
	lineTask     = attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "bench/line")}
	lineInterest = lineTask.With(attr.ClassIsInterest())
	// lineEvent is the shape of cmd/diffbench's event.
	lineEvent = attr.Vec{
		attr.StringAttr(attr.KeyType, attr.IS, "diffbench"),
		attr.StringAttr(attr.KeyTask, attr.IS, "bench/line"),
		attr.Int32Attr(attr.KeySequence, attr.IS, 12345),
		attr.BlobAttr(attr.KeyPayload, attr.IS, make([]byte, 32)),
		attr.ClassIsData(),
	}
	// linePub and lineExtra split lineEvent between a publication and what
	// each Send adds to it; the node adds the class.
	linePub, lineExtra = lineEvent[:2], lineEvent[2:4]
)

// reinforcedPath builds node 2 between source 1 and sinks with the
// reinforced path to each set up, and returns it with events fresh
// plain-Data payloads from 1. Every payload is a buffer of its own, built
// here and never written again, as the live transport hands them.
func reinforcedPath(t *testing.T, link Link, cfg Config, events int, sinks ...uint32) (*Node, [][]byte) {
	if cfg.Clock == nil {
		s := sim.New(1)
		cfg.Clock, cfg.Rand = s, s.Rand()
	}
	cfg.Link = link
	n := NewNode(cfg)
	t.Cleanup(n.Close)

	for _, sink := range sinks {
		n.Receive(sink, (&message.Message{
			Class: message.Interest, ID: message.ID{RandID: sink, PktNum: 1}, NextHop: message.Broadcast,
			Attrs: lineInterest,
		}).Marshal())
	}
	ev := message.Message{
		Class: message.ExploratoryData, ID: message.ID{RandID: 1, PktNum: 1}, NextHop: message.Broadcast,
		Attrs: lineEvent,
	}
	n.Receive(1, ev.Marshal())
	for _, sink := range sinks {
		n.Receive(sink, (&message.Message{
			Class: message.PositiveReinforcement, ID: ev.ID, NextHop: 2, Attrs: lineInterest,
		}).Marshal())
	}

	ev.Class, ev.NextHop = message.Data, 2
	wires := make([][]byte, events)
	for i := range wires {
		ev.ID.PktNum++ // a new event each time, or the duplicate cache stops it
		wires[i] = ev.Marshal()
	}
	return n, wires
}

// reinforcedSource builds source 1, publishing linePub, with a reinforced
// gradient toward sink 3 set up, so each plain Data it sends is transmitted
// to 3 within the call. Its first send, exploratory, has gone out.
func reinforcedSource(t *testing.T, link Link) (*Node, *sim.Engine, PublicationHandle) {
	s := sim.New(1)
	n := NewNode(Config{Clock: s, Rand: s.Rand(), Link: link})
	t.Cleanup(n.Close)
	n.Receive(3, (&message.Message{
		Class: message.Interest, ID: message.ID{RandID: 3, PktNum: 1}, NextHop: message.Broadcast,
		Attrs: lineInterest,
	}).Marshal())
	h := n.Publish(linePub)
	if err := n.Send(h, lineExtra); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(s.Now() + n.cfg.ForwardJitter)
	n.Receive(3, (&message.Message{
		Class: message.PositiveReinforcement, ID: message.ID{RandID: 3, PktNum: 2}, NextHop: 1, Attrs: lineInterest,
	}).Marshal())
	return n, s, h
}

// withRings gives cfg a flight recorder and a span ring on s's clock.
func withRings(cfg Config, s *sim.Engine) Config {
	cfg.Flight = telemetry.NewRing(telemetry.DefaultFlightSize, s.Now)
	cfg.Spans = telemetry.NewRing(telemetry.DefaultSpanSize, s.Now)
	return cfg
}

// sample re-encodes each payload as a sampled message of flow.
func sample(t *testing.T, wires [][]byte, flow uint16) {
	t.Helper()
	for i, w := range wires {
		m, err := message.Unmarshal(w)
		if err != nil {
			t.Fatal(err)
		}
		m.Flow = flow
		wires[i] = m.Marshal()
	}
}

// A reception is one fact: the event the flight recorder keeps is the one
// the span ring keeps when the message is sampled, and only then.
func TestReceiveRecordsOneEvent(t *testing.T) {
	s := sim.New(1)
	cfg := withRings(Config{Clock: s, Rand: s.Rand()}, s)
	n, wires := reinforcedPath(t, &countLink{id: 2}, cfg, 2, 3)
	sample(t, wires[:1], 0x77)
	s.RunUntil(5 * time.Second)

	n.Receive(1, wires[0])
	spans := cfg.Spans.Records()
	if len(spans) == 0 || spans[0].Verb != telemetry.Recv {
		t.Fatalf("span ring after a sampled reception: %+v", spans)
	}
	var rx telemetry.Event
	for _, e := range cfg.Flight.Records() {
		if e.Verb == telemetry.Recv {
			rx = e
		}
	}
	if rx != spans[0] || rx.At != 5*time.Second || rx.Flow != 0x77 || rx.Node != 2 || rx.Peer != 1 {
		t.Errorf("flight recorder holds %+v, span ring %+v: want one event at 5s", rx, spans[0])
	}

	before := cfg.Spans.Total()
	n.Receive(1, wires[1])
	if got := cfg.Spans.Total(); got != before {
		t.Errorf("an unsampled reception recorded %d spans", got-before)
	}
}

// holders are the ways a filter or a data callback can hold the message it
// borrows: a copy (m.Clone()), which must read what m read in the call
// however many calls follow, or m itself, which the node clears once the
// call returns, so that it reads zero attributes.
var holders = []struct {
	name    string
	itself  bool
	install func(n *Node, hold func(*message.Message))
}{
	{"filter", false, func(n *Node, hold func(*message.Message)) {
		n.AddFilter(lineTask, 10, func(m *message.Message, h FilterHandle) {
			hold(m.Clone())
			n.SendMessageToNext(m, h)
		})
	}},
	{"filter keeping m", true, func(n *Node, hold func(*message.Message)) {
		n.AddFilter(lineTask, 10, func(m *message.Message, h FilterHandle) {
			hold(m)
			n.SendMessageToNext(m, h)
		})
	}},
	{"data callback", false, func(n *Node, hold func(*message.Message)) {
		n.SubscribeLocal(lineTask, func(m *message.Message) { hold(m.Clone()) })
	}},
	{"data callback keeping m", true, func(n *Node, hold func(*message.Message)) {
		n.SubscribeLocal(lineTask, hold)
	}},
}

// cleared reports whether v holds zero attributes only.
func cleared(v attr.Vec) bool {
	return !slices.ContainsFunc(v, func(a attr.Attribute) bool { return !reflect.ValueOf(a).IsZero() })
}

// holdAcross installs each holder on a node from build and lends it the
// message of each of 101 calls, then checks what it held. A copy fails if
// its Clone is taken out; m itself fails if the node does not clear it.
func holdAcross(t *testing.T, build func(t *testing.T) (n *Node, call func(i int))) {
	for _, hc := range holders {
		t.Run(hc.name, func(t *testing.T) {
			n, call := build(t)
			var held []*message.Message
			var inCall [][]byte
			hc.install(n, func(m *message.Message) {
				held, inCall = append(held, m), append(inCall, m.Marshal())
			})
			const calls = 101
			for i := 0; i < calls; i++ {
				call(i)
				if len(held) != i+1 {
					t.Fatalf("handed out %d messages in %d calls", len(held), i+1)
				}
				if m := held[i]; hc.itself && !cleared(m.Attrs) {
					t.Fatalf("the message lent in call %d reads %v once the call has returned, want zero attributes", i, m.Attrs)
				}
			}
			if got := held[0].Marshal(); !hc.itself && !bytes.Equal(got, inCall[0]) {
				t.Errorf("the first copy kept reads, %d calls later,\n got %x\nwant %x", calls-1, got, inCall[0])
			}
		})
	}
}

// What a filter or a data callback holds must not turn into a later
// reception. The payloads here are never written again, as the live
// transport's are; over a lending link (the MAC) a held copy's values would
// read what the link overwrote, which is why a holder copies the values it
// keeps.
func TestHeldMessagesSurviveLaterReceptions(t *testing.T) {
	holdAcross(t, func(t *testing.T) (*Node, func(int)) {
		n, wires := reinforcedPath(t, &countLink{id: 2}, Config{}, 101, 3)
		return n, func(i int) { n.Receive(1, wires[i]) }
	})
}

// Nor into a later origination: a filter and a data callback on the
// publishing node borrow what Send lent them.
func TestHeldMessagesSurviveLaterSends(t *testing.T) {
	holdAcross(t, func(t *testing.T) (*Node, func(int)) {
		n, _, h := reinforcedSource(t, &countLink{id: 1})
		return n, func(int) {
			if err := n.Send(h, lineExtra); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// An interest entry takes its attributes from the reception that created
// it, whose payload the node only borrows, so the entry owns a copy: over a
// lending link it must hash, match and re-encode the same however much
// traffic follows through the buffer the interest came in. It fails if the
// entry keeps windows onto the payload.
func TestInterestEntrySurvivesLaterReceptions(t *testing.T) {
	_, wires := reinforcedPath(t, &countLink{id: 2}, Config{}, 1000, 3)
	s := sim.New(1)
	n := NewNode(Config{Clock: s, Rand: s.Rand(), Link: &countLink{id: 2}})
	t.Cleanup(n.Close)
	var l lender
	l.receive(n, 3, (&message.Message{
		Class: message.Interest, ID: message.ID{RandID: 3, PktNum: 1}, NextHop: message.Broadcast,
		Attrs: lineInterest,
	}).Marshal())
	e, ok := n.lookupEntry(lineInterest)
	if !ok {
		t.Fatal("no entry for the interest the node received")
	}
	for _, w := range wires {
		l.receive(n, 1, w)
	}
	if !bytes.Equal(e.attrs.AppendEncode(nil), lineInterest.AppendEncode(nil)) {
		t.Errorf("entry re-encodes as %v, received %v", e.attrs, lineInterest)
	}
	if e.attrs.Hash() != e.hash || e.hash != lineInterest.Hash() {
		t.Errorf("entry hashes to %#x, filed under %#x, interest hashes to %#x", e.attrs.Hash(), e.hash, lineInterest.Hash())
	}
	if !attr.Match(e.attrs, lineEvent) {
		t.Errorf("entry %v no longer matches %v", e.attrs, lineEvent)
	}
	if got := n.matchingEntries(lineEvent); len(got) != 1 || got[0] != e {
		t.Errorf("the match index finds %d entries for the event, want the one", len(got))
	}
}

// seamLink connects the nodes of one test either the way every real link
// does — the receiver runs later, from the scheduler — or synchronously,
// from inside Send, and logs what each node was handed to send.
type seamLink struct {
	id    uint32
	s     *sim.Engine
	sync  bool
	nodes map[uint32]*Node
	sent  map[uint32][]string
}

func (l *seamLink) ID() uint32 { return l.id }
func (l *seamLink) Send(dst uint32, payload []byte) error {
	data := bytes.Clone(payload)
	l.sent[l.id] = append(l.sent[l.id], fmt.Sprintf("to %d: %x", dst, data))
	deliver := func() {
		if n := l.nodes[dst]; n != nil {
			n.Receive(l.id, data)
		}
	}
	if l.sync {
		deliver()
	} else {
		l.s.After(0, deliver)
	}
	return nil
}

// A link that delivers synchronously re-enters Receive: in store-and-carry
// custody every Data a node forwards is acknowledged by the next hop at
// once, so the ack from sink 3 arrives at relay 2 while 2 is still inside
// coreData for the message it is forwarding, with sink 4 yet to be served
// from the same receive message. (Reinforcements cannot nest this way: what
// triggers them is forwarded from a jitter timer, not from inside Receive.)
// The outer reception must send and deliver exactly what it does over a
// queued link.
func TestNestedReceptionLeavesOuterMessageAlone(t *testing.T) {
	run := func(sync bool) (sent map[uint32][]string, delivered []string) {
		s := sim.New(1)
		nodes, sent := map[uint32]*Node{}, map[uint32][]string{}
		cfg := func() Config {
			// Jitter far beyond the test's horizon: no flood forward fires.
			return Config{Clock: s, Rand: s.Rand(), Custody: custody.NewQueue(0, nil), ForwardJitter: time.Hour}
		}
		link := func(id uint32) Link { return &seamLink{id: id, s: s, sync: sync, nodes: nodes, sent: sent} }
		for _, id := range []uint32{3, 4} {
			c := cfg()
			c.Link = link(id)
			nodes[id] = NewNode(c)
			t.Cleanup(nodes[id].Close)
		}
		relay, wires := reinforcedPath(t, link(2), cfg(), 3, 3, 4)
		nodes[2] = relay
		relay.SubscribeLocal(lineTask,
			func(m *message.Message) { delivered = append(delivered, fmt.Sprintf("%x", m.Marshal())) })
		s.RunUntil(s.Now() + time.Millisecond)
		for id := range sent {
			sent[id] = nil // compare from the first plain Data on
		}
		for _, w := range wires {
			relay.Receive(1, w)
			s.RunUntil(s.Now() + time.Millisecond)
		}
		return sent, delivered
	}
	queuedSent, queuedDelivered := run(false)
	syncSent, syncDelivered := run(true)
	if len(queuedSent[2]) != 3*3 || len(queuedSent[3]) != 3 || len(queuedSent[4]) != 3 {
		t.Fatalf("queued link: relay sent %d (want an ack and two forwards per event), sinks acked %d and %d of 3",
			len(queuedSent[2]), len(queuedSent[3]), len(queuedSent[4]))
	}
	for _, id := range []uint32{2, 3, 4} {
		if !slices.Equal(syncSent[id], queuedSent[id]) {
			t.Errorf("node %d sent over the synchronous link\n%q\nover the queued link\n%q", id, syncSent[id], queuedSent[id])
		}
	}
	if !slices.Equal(syncDelivered, queuedDelivered) || len(queuedDelivered) != 3 {
		t.Errorf("relay delivered over the synchronous link\n%q\nover the queued link\n%q", syncDelivered, queuedDelivered)
	}
}

// A filter or a callback on the publishing node may originate in turn, and
// hand the message it was lent on as it does. Here source 1's own sink sends
// the event it is handed on as the extra attributes of a second one, a view
// of the origination message's own vector, and subscribes to it. The inner
// origination must build in a message of its own, or it overwrites the outer
// one the node has still to forward; and the node must end up idle.
func TestNestedOriginationLeavesOuterMessageAlone(t *testing.T) {
	link := &seamLink{id: 1, sync: true, nodes: map[uint32]*Node{}, sent: map[uint32][]string{}}
	n, _, h := reinforcedSource(t, link)
	var inner SubscriptionHandle
	n.SubscribeLocal(lineTask, func(m *message.Message) {
		if inner != 0 {
			return
		}
		inner = n.Subscribe(m.Attrs, nil)
		if err := n.Send(h, m.Attrs); err != nil {
			t.Fatal(err)
		}
	})
	link.sent[1] = nil
	pkt := n.pktNum
	if err := n.Send(h, lineExtra); err != nil {
		t.Fatal(err)
	}
	want := func(pkt uint32, attrs attr.Vec) string {
		return fmt.Sprintf("to 3: %x", (&message.Message{
			Class: message.Data, ID: message.ID{RandID: n.randID, PktNum: pkt},
			PrevHop: 1, NextHop: 3, HopCount: 1, Attrs: attrs,
		}).Marshal())
	}
	// The inner event goes out first, from inside the outer one's delivery.
	if got, want := link.sent[1], []string{want(pkt+2, append(slices.Clone(linePub), lineEvent...)), want(pkt+1, lineEvent)}; !slices.Equal(got, want) {
		t.Errorf("source sent\n%q\nwant the inner event, then the outer one\n%q", got, want)
	}
	if got, _ := n.SubscriptionAttrs(inner); !bytes.Equal(got.AppendEncode(nil), lineEvent.AppendEncode(nil)) {
		t.Errorf("the subscription made from the lent message holds %v, want %v", got, lineEvent)
	}
	if n.txBusy || !cleared(n.tx.Attrs) {
		t.Errorf("after the send the node is busy %v, its origination message holds %v", n.txBusy, n.tx.Attrs)
	}
}
