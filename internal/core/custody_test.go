package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/custody"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// withCustody equips a test node with a (journal-free) custody queue.
func withCustody(c *Config) {
	c.Custody = custody.NewQueue(256, nil)
}

// TestCustodySurvivesPartitionAndReplays is the store-and-carry zero-loss
// scenario: sink 1 — relay 2 — source 3, the sink-side link partitioned
// for longer than every piece of soft state survives (gradient lifetime
// 25 s here, partition 35 s), the source publishing throughout. Without
// custody every message sent during the partition is silently dropped
// once the gradients decay; with custody each one is captured at the
// stuck hop and replayed after the heal, and the duplicate-suppression
// caches keep delivery exactly-once.
func TestCustodySurvivesPartitionAndReplays(t *testing.T) {
	tn := newTestNet(23)
	sink := tn.addNode(1, withCustody)
	relay := tn.addNode(2, withCustody)
	source := tn.addNode(3, withCustody)
	tn.connect(1, 2)
	tn.connect(2, 3)

	delivered := map[int32]int{}
	sink.Subscribe(surveillanceInterest(), func(m *message.Message) {
		a, ok := m.Attrs.FindActual(attr.KeySequence)
		if !ok {
			t.Errorf("delivery without sequence attr")
			return
		}
		delivered[int32(a.Val.AsFloat())]++
	})
	pub := source.Publish(surveillancePublication())

	var sent int32
	tn.s.Every(100*time.Millisecond, 500*time.Millisecond, func() {
		if tn.s.Now() >= 55*time.Second {
			return
		}
		sent++
		source.Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, sent)})
	})

	// Healthy phase.
	tn.s.RunUntil(10 * time.Second)
	if len(delivered) == 0 {
		t.Fatal("no deliveries in the healthy phase")
	}

	// Partition the sink-side link and deliver the detector verdicts, as
	// the live stack would. The partition outlives the gradient lifetime
	// (25 s): by the heal, no soft state bridges the cut.
	tn.setCut(1, 2, true)
	sink.NeighborDead(2)
	relay.NeighborDead(1)
	tn.s.RunUntil(45 * time.Second)

	if relay.Stats.CustodyCaptured == 0 && source.Stats.CustodyCaptured == 0 {
		t.Fatal("nothing captured into custody during the partition")
	}

	// Heal. Recovery hooks fire exactly as the live detector would.
	tn.setCut(1, 2, false)
	sink.NeighborRecovered(2)
	relay.NeighborRecovered(1)
	tn.s.RunUntil(80 * time.Second)

	// Zero reinforced-message loss, zero duplicate deliveries.
	if int32(len(delivered)) != sent {
		missing := []int32{}
		for s := int32(1); s <= sent; s++ {
			if delivered[s] == 0 {
				missing = append(missing, s)
			}
		}
		t.Fatalf("delivered %d of %d distinct messages; missing %v",
			len(delivered), sent, missing)
	}
	for s, cnt := range delivered {
		if cnt != 1 {
			t.Fatalf("sequence %d delivered %d times, want exactly once", s, cnt)
		}
	}
	for name, n := range map[string]*Node{"sink": sink, "relay": relay, "source": source} {
		if n.cfg.Custody.Len() != 0 {
			t.Fatalf("%s still holds %d custodial items after drain", name, n.cfg.Custody.Len())
		}
	}
	if c := relay.cfg.Custody.Counters(); c.Replayed == 0 {
		t.Fatal("relay never replayed custodial data")
	}
}

// refusingLink is a custody-capable link that refuses every send, as a full
// MAC queue refuses a frame.
type refusingLink struct{ id uint32 }

func (l *refusingLink) ID() uint32                                   { return l.id }
func (l *refusingLink) Send(uint32, []byte) error                    { return errors.New("link queue full") }
func (l *refusingLink) SendCustody(uint32, message.ID, []byte) error { return nil }

// A jittered exploratory forward the link refuses is a congestion loss, and
// with custody on the relay holds it instead: the queue gets exactly the
// forward's bytes, one hop further and sent by the relay. The link is
// custody-capable, so the relay admits nothing when the message arrives and
// whatever the queue holds came from the refusal. The receptions are lent,
// so the bytes can only come from the forward's own copy.
func TestRefusedForwardTakenIntoCustody(t *testing.T) {
	s := sim.New(1)
	cfg := Config{Clock: s, Rand: s.Rand(), Link: &refusingLink{id: 2}}
	withCustody(&cfg)
	n := NewNode(cfg)
	defer n.Close()
	var l lender
	l.receive(n, 3, (&message.Message{
		Class: message.Interest, ID: message.ID{RandID: 3, PktNum: 1}, NextHop: message.Broadcast,
		Attrs: lineInterest,
	}).Marshal())
	exp := message.Message{
		Class: message.ExploratoryData, ID: message.ID{RandID: 1, PktNum: 1}, HopCount: 2,
		NextHop: message.Broadcast, Attrs: lineEvent,
	}
	l.receive(n, 1, exp.Marshal())
	if held := n.cfg.Custody.Len(); held != 0 {
		t.Fatalf("%d items in custody before the forward fired", held)
	}
	s.RunUntil(s.Now() + n.cfg.ForwardJitter)

	want := exp
	want.HopCount, want.PrevHop = 3, 2
	items := n.cfg.Custody.Items()
	if len(items) != 1 || items[0].ID != exp.ID || !bytes.Equal(items[0].Payload, want.Marshal()) {
		t.Fatalf("custody holds %v, want the forward %x", items, want.Marshal())
	}
	if n.Stats.LinkSendErrors != 2 || n.Stats.CustodyCaptured != 1 {
		t.Fatalf("%d refused sends and %d captures, want 2 (interest and exploratory forwards) and 1",
			n.Stats.LinkSendErrors, n.Stats.CustodyCaptured)
	}
}

// TestNeighborRecoveredReoffersInterests checks the recovery hook's
// interest re-offer: a neighbor that lost its interest cache (warm
// restart) gets the cached interest unicast immediately, rebuilding its
// gradient toward us without waiting for the sink's next refresh.
func TestNeighborRecoveredReoffersInterests(t *testing.T) {
	tn := newTestNet(31)
	nodes := tn.line(3)
	sink, relay, edge := nodes[0], nodes[1], nodes[2]
	sink.Subscribe(surveillanceInterest(), func(*message.Message) {})
	tn.s.RunUntil(3 * time.Second)
	if edge.Entries() != 1 {
		t.Fatalf("edge entries = %d, want 1 before the crash", edge.Entries())
	}

	// Edge node crashes and reboots: its interest cache is gone.
	edge.Detach()
	edge.Restart()
	if edge.Entries() != 0 {
		t.Fatalf("edge entries = %d after restart, want 0", edge.Entries())
	}

	before := relay.Stats.SentByClass[message.Interest]
	relay.NeighborRecovered(3)
	if relay.Stats.NeighborRecoveries != 1 {
		t.Fatalf("neighbor recoveries = %d, want 1", relay.Stats.NeighborRecoveries)
	}
	if relay.Stats.SentByClass[message.Interest] != before+1 {
		t.Fatalf("relay sent %d interests on recovery, want 1",
			relay.Stats.SentByClass[message.Interest]-before)
	}
	tn.s.RunUntil(3*time.Second + 100*time.Millisecond)
	if edge.Entries() != 1 {
		t.Fatalf("edge entries = %d after re-offer, want 1", edge.Entries())
	}

	// The re-offered interest carried the cached hop budget, so the entry
	// can still bound further flooding.
	if e := relay.entriesInOrder(); len(e) != 1 || !e[0].hasHops {
		t.Fatal("relay entry lost its hop budget")
	}
}
