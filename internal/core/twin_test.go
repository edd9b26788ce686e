package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// twinRig is a node whose subscriptions log each delivery as (handle,
// message number), beside a model of the live subscriptions that a linear
// attr.Match scan turns into the deliveries the node owes.
type twinRig struct {
	t    *testing.T
	n    *Node
	live map[SubscriptionHandle]attr.Vec // the model
	got  []string
	msg  int // number of the message being injected
	// kill makes a subscription's callback unsubscribe another handle the
	// next time it runs.
	kill map[SubscriptionHandle]SubscriptionHandle
}

func newTwinRig(t *testing.T) *twinRig {
	s := sim.New(1)
	r := &twinRig{t: t, n: NewNode(Config{Clock: s, Rand: s.Rand(), Link: &countLink{id: 1}}),
		live: map[SubscriptionHandle]attr.Vec{}, kill: map[SubscriptionHandle]SubscriptionHandle{}}
	// A sink on every task, so every data message finds an interest entry
	// and reaches local delivery.
	r.subscribe(attr.Vec{attr.Any(attr.KeyTask)}, true)
	return r
}

// subscribe adds a subscription on v, local or flooding its interest.
func (r *twinRig) subscribe(v attr.Vec, local bool) SubscriptionHandle {
	var h SubscriptionHandle
	cb := func(*message.Message) {
		r.got = append(r.got, fmt.Sprintf("%d@%d", h, r.msg))
		if v, ok := r.kill[h]; ok {
			delete(r.kill, h)
			r.unsubscribe(v)
		}
	}
	if local {
		h = r.n.SubscribeLocal(v, cb)
	} else {
		h = r.n.Subscribe(v, cb)
	}
	r.live[h] = v
	return h
}

func (r *twinRig) unsubscribe(h SubscriptionHandle) {
	if err := r.n.Unsubscribe(h); err != nil {
		r.t.Fatal(err)
	}
	delete(r.live, h)
}

// inject dispatches a message with attributes a and checks the deliveries
// against the model as it stood: a callback's Unsubscribe takes effect
// from the next message on.
func (r *twinRig) inject(class message.Class, a attr.Vec) {
	r.t.Helper()
	r.msg++
	handles := make([]SubscriptionHandle, 0, len(r.live))
	for h := range r.live {
		handles = append(handles, h)
	}
	slices.Sort(handles)
	var want []string
	for _, h := range handles {
		if attr.Match(r.live[h], a) {
			want = append(want, fmt.Sprintf("%d@%d", h, r.msg))
		}
	}
	r.got = r.got[:0]
	r.n.InjectMessage(&message.Message{Class: class, NextHop: message.Broadcast, Attrs: a})
	if !slices.Equal(r.got, want) {
		r.t.Fatalf("message %d %v: delivered %v, a linear scan in handle order gives %v", r.msg, a, r.got, want)
	}
	distinct := map[string]bool{}
	for _, v := range r.live {
		distinct[fmt.Sprint(v)] = true
	}
	if got := r.n.midx.subs.Len(); got != len(distinct) {
		r.t.Fatalf("after message %d: %d vectors indexed for %d distinct live ones", r.msg, got, len(distinct))
	}
}

var (
	taskA = attr.StringAttr(attr.KeyTask, attr.EQ, "a")
	taskB = attr.StringAttr(attr.KeyTask, attr.EQ, "b")
	floor = attr.Float64Attr(attr.KeyConfidence, attr.GT, 0.5)
	dataA = func(conf float64) attr.Vec {
		return attr.Vec{attr.ClassIsData(), attr.StringAttr(attr.KeyTask, attr.IS, "a"), attr.Float64Attr(attr.KeyConfidence, attr.IS, conf)}
	}
	dataB  = attr.Vec{attr.ClassIsData(), attr.StringAttr(attr.KeyTask, attr.IS, "b")}
	interA = attr.Vec{attr.ClassIsInterest(), taskA}
)

// twinPool is what the differential test subscribes to: exact repeats of
// each vector, one set in two orders (one interest hash, two vectors), a
// vector with a class actual (the interest form of {taskA}, so the same
// hash again) and a passive interest tap.
var twinPool = []attr.Vec{
	{taskA},
	{taskA, floor},
	{floor, taskA},
	{taskA, attr.ClassIsInterest()},
	{taskB},
	{attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest), attr.StringAttr(attr.KeyTask, attr.IS, "a")},
}

// Random Subscribe, SubscribeLocal and Unsubscribe calls over the pool,
// interleaved with data and interests (some of whose callbacks unsubscribe
// a live subscription), deliver exactly what a linear scan of the live
// subscriptions does, in ascending handle order, while the delivery index
// holds one vector per distinct live one.
func TestTwinsMatchLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := newTwinRig(t)
		rng := rand.New(rand.NewSource(seed))
		var handles []SubscriptionHandle
		for step := 0; step < 300; step++ {
			switch k := rng.Intn(10); {
			case k < 4:
				handles = append(handles, r.subscribe(twinPool[rng.Intn(len(twinPool))], rng.Intn(2) == 0))
			case k < 6 && len(handles) > 0:
				i := rng.Intn(len(handles))
				r.unsubscribe(handles[i])
				handles = slices.Delete(handles, i, i+1)
			default:
				if len(handles) > 0 && rng.Intn(3) == 0 {
					r.kill[handles[rng.Intn(len(handles))]] = handles[rng.Intn(len(handles))]
				}
				switch rng.Intn(4) {
				case 0:
					r.inject(message.Data, dataA(0.7))
				case 1:
					r.inject(message.Data, dataA(0.3))
				case 2:
					r.inject(message.Data, dataB)
				default:
					r.inject(message.Interest, interA)
				}
				clear(r.kill) // a killer that did not match kills nobody
				handles = slices.DeleteFunc(handles, func(h SubscriptionHandle) bool { _, ok := r.live[h]; return !ok })
			}
		}
	}
}

// A callback may unsubscribe a later twin, or its own leader, while a
// message is being delivered: the victim still gets that message, from the
// snapshot taken before any callback ran, and nothing after it.
func TestTwinUnsubscribedMidDelivery(t *testing.T) {
	r := newTwinRig(t)
	v := attr.Vec{taskA}
	lead := r.subscribe(v, true)
	first := r.subscribe(v, true)
	second := r.subscribe(v, false)
	r.subscribe(v, true)
	r.kill[lead] = second
	r.kill[first] = lead
	r.inject(message.Data, dataA(0.7))
	if len(r.got) != 5 {
		t.Fatalf("delivered %v, want the sink and all four on %v", r.got, v)
	}
	r.inject(message.Data, dataA(0.7))
	if len(r.got) != 3 {
		t.Fatalf("delivered %v, want the sink and the two left on %v", r.got, v)
	}
}

// When the first subscriber on a vector leaves, the others go on
// receiving, in handle order among another vector's subscriptions, through
// the same index slot, which is freed only when the last of them leaves.
func TestTwinPromotedWhenLeaderLeaves(t *testing.T) {
	r := newTwinRig(t)
	v := attr.Vec{taskA, floor}
	lead := r.subscribe(v, true)
	r.subscribe(attr.Vec{floor, taskA}, true) // same set, other order: a vector of its own
	first := r.subscribe(v, false)
	second := r.subscribe(v, true)
	r.inject(message.Data, dataA(0.7))
	for _, h := range []SubscriptionHandle{lead, first, second} {
		r.unsubscribe(h)
		r.inject(message.Data, dataA(0.7))
	}
	if len(r.got) != 2 {
		t.Fatalf("delivered %v once all three on %v left, want the sink and the reordered vector", r.got, v)
	}
}

func nopCallback(*message.Message) {}

// interestsSent runs a lone node (10 s interest interval, seed 3) for a
// simulated minute: setup makes its subscriptions at t = 0 and, when
// change is not nil, change runs at 25 s. It returns the interests the
// node sent before and after the change.
func interestsSent(setup func(*Node), change func(*Node)) (before, after int) {
	tn := newTestNet(3)
	n := tn.addNode(1, nil)
	setup(n)
	tn.s.RunUntil(25 * time.Second)
	before = n.Stats.SentByClass[message.Interest]
	if change != nil {
		change(n)
	}
	tn.s.RunUntil(time.Minute)
	return before, n.Stats.SentByClass[message.Interest] - before
}

// N subscriptions on one vector send one interest flood, the one a single
// subscription sends; it goes on while an active subscriber is left, and
// stops once only a SubscribeLocal subscriber is.
func TestOneFloodPerVector(t *testing.T) {
	v := attr.Vec{taskA}
	twins := func(k int) func(*Node) {
		return func(n *Node) {
			for i := 0; i < k; i++ {
				n.Subscribe(v, nopCallback)
			}
		}
	}
	b1, a1 := interestsSent(twins(1), nil)
	if b1 == 0 || a1 == 0 {
		t.Fatalf("one subscription sent %d interests before 25 s and %d after", b1, a1)
	}
	if b8, a8 := interestsSent(twins(8), nil); b8 != b1 || a8 != a1 {
		t.Errorf("8 twin Subscribes sent %d+%d interests, one sends %d+%d", b8, a8, b1, a1)
	}
	unsubscribeFirst := func(n *Node) { n.Unsubscribe(n.ActiveSubscriptions()[0]) }
	if b, a := interestsSent(twins(8), unsubscribeFirst); b != b1 || a != a1 {
		t.Errorf("8 twins, the first unsubscribed at 25 s, sent %d+%d interests, one sends %d+%d", b, a, b1, a1)
	}
	var active []SubscriptionHandle
	withLocal := func(n *Node) {
		active = append(active, n.Subscribe(v, nopCallback))
		n.SubscribeLocal(v, nopCallback)
		active = append(active, n.Subscribe(v, nopCallback))
	}
	leaveLocal := func(n *Node) {
		for _, h := range active {
			n.Unsubscribe(h)
		}
	}
	if b, a := interestsSent(withLocal, leaveLocal); b != b1 || a != 0 {
		t.Errorf("2 active and a local twin sent %d interests, and %d after the active ones left; want %d and 0", b, a, b1)
	}
	// An interest tap that unsubscribes the vector's only subscriber when
	// its first interest goes out stops the flood from within it.
	tapUnsubscribes := func(n *Node) {
		h := n.Subscribe(v, nopCallback)
		n.Subscribe(attr.Vec{attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest), attr.StringAttr(attr.KeyTask, attr.IS, "a")}, func(*message.Message) { n.Unsubscribe(h) })
	}
	if b, a := interestsSent(tapUnsubscribes, nil); b != 1 || a != 0 {
		t.Errorf("a subscriber unsubscribed by a tap on its first interest sent %d+%d interests, want 1+0", b, a)
	}
}

// logLink records every send: its time, destination and bytes.
type logLink struct {
	clock sim.Clock
	log   []string
}

func (l *logLink) ID() uint32 { return 1 }
func (l *logLink) Send(dst uint32, p []byte) error {
	l.log = append(l.log, fmt.Sprintf("%v %d %x", l.clock.Now(), dst, p))
	return nil
}

// A node with several active subscriptions re-arms their interest
// refreshes in one order after Restart, NeighborDead and NeighborRecovered,
// so one seed gives one send transcript.
func TestRearmDeterministic(t *testing.T) {
	transcripts := map[string]bool{}
	for run := 0; run < 20; run++ {
		s := sim.New(1)
		l := &logLink{clock: s}
		n := NewNode(Config{Clock: s, Rand: s.Rand(), Link: l, InterestInterval: 10 * time.Second})
		for i := 0; i < 6; i++ {
			n.Subscribe(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, fmt.Sprint("t", i))}, nopCallback)
		}
		s.RunUntil(15 * time.Second)
		n.Detach()
		n.Restart()
		s.RunUntil(30 * time.Second)
		n.NeighborDead(2)
		s.RunUntil(45 * time.Second)
		n.NeighborRecovered(2)
		s.RunUntil(time.Minute)
		transcripts[strings.Join(l.log, "\n")] = true
	}
	if len(transcripts) != 1 {
		t.Fatalf("20 runs of one seed gave %d send transcripts", len(transcripts))
	}
}
