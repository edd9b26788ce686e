package filters

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/nettest"
)

func sinkInterest() attr.Vec {
	return attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "surveillance"),
	}
}

func sourcePub() attr.Vec {
	return attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "surveillance")}
}

func seqAttr(i int32) attr.Vec {
	return attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, i)}
}

// yShape builds the Figure-8-style aggregation scenario in miniature:
// sources 4 and 5 both feed relay 2 through distinct first hops (3 and 6),
// relay 2 feeds sink 1. Both sources emit identical event streams.
//
//	1 - 2 - 3 - 4
//	     \- 6 - 5
func yShape(seed int64) (*nettest.Net, *core.Node, []*core.Node, *core.Node) {
	tn := nettest.New(seed)
	sink := tn.AddNode(1, nil)
	relay := tn.AddNode(2, nil)
	tn.AddNode(3, nil)
	s1 := tn.AddNode(4, nil)
	tn.AddNode(6, nil)
	s2 := tn.AddNode(5, nil)
	tn.Connect(1, 2)
	tn.Connect(2, 3)
	tn.Connect(3, 4)
	tn.Connect(2, 6)
	tn.Connect(6, 5)
	return tn, sink, []*core.Node{s1, s2}, relay
}

func TestSuppressionPassesFirstAndDropsDuplicates(t *testing.T) {
	tn, sink, sources, relay := yShape(1)
	sup := NewSuppression(relay, tn.Sched, SuppressionOptions{})

	delivered := map[int32]int{}
	sink.Subscribe(sinkInterest(), func(m *message.Message) {
		if a, ok := m.Attrs.FindActual(attr.KeySequence); ok {
			delivered[a.Val.Int32()]++
		}
	})
	pubs := []core.PublicationHandle{
		sources[0].Publish(sourcePub()),
		sources[1].Publish(sourcePub()),
	}
	// Both sources emit the same sequence numbers every 2 seconds,
	// mirroring the Figure 8 synchronized event generation.
	seq := int32(0)
	tn.Sched.Every(3*time.Second, 2*time.Second, func() {
		seq++
		for i, src := range sources {
			src.Send(pubs[i], seqAttr(seq))
		}
	})
	tn.Sched.RunUntil(60 * time.Second)

	if sup.Suppressed == 0 {
		t.Fatalf("relay suppressed nothing (passed=%d)", sup.Passed)
	}
	if len(delivered) < 20 {
		t.Fatalf("sink saw only %d distinct events", len(delivered))
	}
	// The sink must see each event at most once via the suppressing relay.
	for s, n := range delivered {
		if n > 1 {
			t.Errorf("event %d delivered %d times despite suppression", s, n)
		}
	}
}

func TestSuppressionReducesTraffic(t *testing.T) {
	run := func(withFilter bool) int {
		tn, sink, sources, relay := yShape(2)
		if withFilter {
			NewSuppression(relay, tn.Sched, SuppressionOptions{})
			// Suppress at the first hops too, as in the testbed where
			// every node carried the filter.
			NewSuppression(tn.Nodes[3], tn.Sched, SuppressionOptions{})
			NewSuppression(tn.Nodes[6], tn.Sched, SuppressionOptions{})
			NewSuppression(sink, tn.Sched, SuppressionOptions{})
		}
		events := 0
		sink.Subscribe(sinkInterest(), func(m *message.Message) { events++ })
		pubs := []core.PublicationHandle{
			sources[0].Publish(sourcePub()),
			sources[1].Publish(sourcePub()),
		}
		seq := int32(0)
		tn.Sched.Every(3*time.Second, 2*time.Second, func() {
			seq++
			for i, src := range sources {
				src.Send(pubs[i], seqAttr(seq))
			}
		})
		tn.Sched.RunUntil(2 * time.Minute)
		bytes := 0
		for _, n := range tn.Nodes {
			bytes += n.Stats.BytesSent
		}
		return bytes
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("suppression should cut diffusion bytes: with=%d without=%d", with, without)
	}
}

func TestSuppressionIgnoresNonEvents(t *testing.T) {
	tn := nettest.New(3)
	nodes := tn.Line(2)
	sup := NewSuppression(nodes[1], tn.Sched, SuppressionOptions{})
	var got int
	nodes[0].Subscribe(sinkInterest(), func(*message.Message) { got++ })
	pub := nodes[1].Publish(sourcePub())
	// No sequence attribute: identity is absent, so nothing is suppressed
	// even though the payload repeats.
	tn.Sched.After(2*time.Second, func() { nodes[1].Send(pub, nil) })
	tn.Sched.After(4*time.Second, func() { nodes[1].Send(pub, nil) })
	tn.Sched.RunUntil(10 * time.Second)
	if sup.Suppressed != 0 {
		t.Error("messages without identity keys must pass")
	}
	if got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
}

func TestSuppressionTTLExpiry(t *testing.T) {
	tn := nettest.New(4)
	nodes := tn.Line(2)
	sup := NewSuppression(nodes[1], tn.Sched, SuppressionOptions{TTL: 5 * time.Second})
	var got int
	nodes[0].Subscribe(sinkInterest(), func(*message.Message) { got++ })
	pub := nodes[1].Publish(sourcePub())
	tn.Sched.After(2*time.Second, func() { nodes[1].Send(pub, seqAttr(7)) })
	tn.Sched.After(3*time.Second, func() { nodes[1].Send(pub, seqAttr(7)) }) // dup
	tn.Sched.After(20*time.Second, func() { nodes[1].Send(pub, seqAttr(7)) })
	tn.Sched.RunUntil(30 * time.Second)
	if sup.Suppressed != 1 {
		t.Errorf("suppressed=%d, want 1 (TTL should have expired)", sup.Suppressed)
	}
	if got != 2 {
		t.Errorf("delivered %d, want 2", got)
	}
}

func TestSuppressionLeavesInterestsAlone(t *testing.T) {
	tn := nettest.New(5)
	nodes := tn.Line(3)
	NewSuppression(nodes[1], tn.Sched, SuppressionOptions{})
	nodes[0].Subscribe(sinkInterest(), nil)
	tn.Sched.RunUntil(2 * time.Second)
	if nodes[2].Entries() == 0 {
		t.Error("interests must pass through the suppression filter")
	}
}

func TestCountingAggregator(t *testing.T) {
	tn, sink, sources, relay := yShape(6)
	agg := NewCountingAggregator(relay, tn.Sched, nil, 500*time.Millisecond, 0)

	var counts []int32
	sink.Subscribe(sinkInterest(), func(m *message.Message) {
		if a, ok := m.Attrs.FindActual(attr.KeyCount); ok {
			counts = append(counts, a.Val.Int32())
		}
	})
	pubs := []core.PublicationHandle{
		sources[0].Publish(sourcePub()),
		sources[1].Publish(sourcePub()),
	}
	seq := int32(0)
	tn.Sched.Every(3*time.Second, 2*time.Second, func() {
		seq++
		for i, src := range sources {
			src.Send(pubs[i], seqAttr(seq))
		}
	})
	tn.Sched.RunUntil(time.Minute)

	if agg.Flushed == 0 {
		t.Fatal("aggregator never flushed")
	}
	if agg.Merged == 0 {
		t.Error("aggregator should merge the second source's copies")
	}
	merged := false
	for _, c := range counts {
		if c >= 2 {
			merged = true
		}
	}
	if !merged {
		t.Errorf("sink should see count>=2 on some events: %v", counts)
	}
}

func TestTap(t *testing.T) {
	tn := nettest.New(7)
	nodes := tn.Line(3)
	tap := NewTap(nodes[1], nil, nil)
	nodes[0].Subscribe(sinkInterest(), nil)
	pub := nodes[2].Publish(sourcePub())
	tn.Sched.After(2*time.Second, func() { nodes[2].Send(pub, seqAttr(1)) })
	tn.Sched.RunUntil(5 * time.Second)
	if tap.Count[message.Interest] == 0 {
		t.Error("tap should see interests")
	}
	if tap.Count[message.ExploratoryData] == 0 {
		t.Error("tap should see exploratory data")
	}
	if tap.Last == nil || tap.Total() == 0 {
		t.Error("tap bookkeeping")
	}
	tap.Remove()
	before := tap.Total()
	tn.Sched.After(time.Second, func() { nodes[2].Send(pub, seqAttr(2)) })
	tn.Sched.RunUntil(10 * time.Second)
	if tap.Total() != before {
		t.Error("removed tap must not observe")
	}
}

// Under steady traffic seen holds at most two TTLs of identities, however
// long the run: gc sweeps once per TTL, not once the map is large.
func TestSuppressionSeenBoundedByTwoTTLs(t *testing.T) {
	const ttl, every = 10 * time.Second, time.Second
	tn := nettest.New(1)
	sup := NewSuppression(tn.AddNode(1, nil), tn.Sched, SuppressionOptions{TTL: ttl})
	m := &message.Message{Class: message.Data, PrevHop: 2, NextHop: 1}
	bound, peak := int(2*ttl/every)+1, 0
	for seq := int32(1); seq <= int32(6*ttl/every); seq++ {
		tn.Sched.RunUntil(tn.Sched.Now() + every)
		m.Attrs = append(m.Attrs[:0], attr.StringAttr(attr.KeyTask, attr.IS, "surveillance"),
			attr.Int32Attr(attr.KeySequence, attr.IS, seq), attr.ClassIsData())
		sup.onMessage(m, sup.handle)
		peak = max(peak, len(sup.seen))
	}
	if sup.Passed != int(6*ttl/every) || peak > bound {
		t.Errorf("%d identities passed over six TTLs, seen peaked at %d, want at most %d (two TTLs)",
			sup.Passed, peak, bound)
	}
}

// The key arena changes how Suppression stores an identity, never which one
// it names: over random streams it must pass and suppress exactly as a plain
// map of identities does. The streams repeat identities, carry identities
// longer than one arena chunk, jump the clock past the TTL, and hold more
// than 1 024 live entries, so gc prunes a large map under the arena.
func TestSuppressionMatchesMapOracle(t *testing.T) {
	const ttl = 2 * time.Second
	long := strings.Repeat("0123456789abcdef", 3*keyChunk/16)
	for seed := int64(1); seed <= 3; seed++ {
		tn := nettest.New(seed)
		sup := NewSuppression(tn.AddNode(1, nil), tn.Sched, SuppressionOptions{TTL: ttl})
		oracle := map[string]time.Duration{}
		rng := rand.New(rand.NewSource(seed))
		m := &message.Message{Class: message.Data, PrevHop: 2, NextHop: 1}
		var suppressed, expired, longDups, peak int
		for i := 0; i < 6000; i++ {
			step := time.Duration(rng.Intn(2000)) * time.Microsecond
			if i%1500 == 1499 {
				step = ttl + time.Duration(rng.Intn(1000))*time.Millisecond
			}
			tn.Sched.RunUntil(tn.Sched.Now() + step)
			task, seq := fmt.Sprintf("task%d", rng.Intn(3)), int32(rng.Intn(2500))
			if rng.Intn(40) == 0 {
				task = long[:keyChunk+[]int{0, 1, 7, 2000}[rng.Intn(4)]]
				seq = int32(rng.Intn(10))
			}
			m.ID.PktNum++
			m.Attrs = append(m.Attrs[:0], attr.StringAttr(attr.KeyTask, attr.IS, task),
				attr.Int32Attr(attr.KeySequence, attr.IS, seq), attr.ClassIsData())

			id, now := fmt.Sprintf("%s\x00%d", task, seq), tn.Sched.Now()
			at, known := oracle[id]
			want := known && now-at <= ttl
			if want {
				suppressed++
				if len(task) >= keyChunk {
					longDups++
				}
			} else {
				if known {
					expired++
				}
				oracle[id] = now
			}
			before := sup.Suppressed
			sup.onMessage(m, sup.handle)
			if got := sup.Suppressed > before; got != want {
				t.Fatalf("seed %d message %d (%.40q, %d) at %v: suppressed %v, the map says %v",
					seed, i, task, seq, now, got, want)
			}
			peak = max(peak, len(sup.seen))
		}
		if suppressed == 0 || expired == 0 || longDups == 0 || peak <= 1024 || len(sup.seen) >= len(oracle) {
			t.Fatalf("seed %d: %d suppressed, %d past the TTL, %d long duplicates, peak %d keys, %d held of %d seen: the stream misses a case",
				seed, suppressed, expired, longDups, peak, len(sup.seen), len(oracle))
		}
	}
}
