//go:build !race

package core

import (
	"testing"

	"diffusion/internal/attr"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// allocPath is reinforcedPath with one payload per AllocsPerRun call: 200
// measured runs and the warm-up.
func allocPath(t *testing.T) (*Node, *countLink, [][]byte) {
	link := &countLink{id: 2}
	n, wires := reinforcedPath(t, link, Config{}, 201, 3)
	return n, link, wires
}

// receiveEach returns the allocations per reception of one payload after
// another, and fails unless the link saw wantSends transmissions for each.
func receiveEach(t *testing.T, n *Node, link *countLink, wires [][]byte, wantSends int) float64 {
	t.Helper()
	before, i := link.sends, 0
	got := testing.AllocsPerRun(len(wires)-1, func() {
		n.Receive(1, wires[i])
		i++
	})
	if sent := link.sends - before; sent != wantSends*len(wires) {
		t.Fatalf("node forwarded %d times for %d events, want %d each: the reinforced path is not set up",
			sent, len(wires), wantSends)
	}
	return got
}

// ringCase runs a relay budget bare, or with a flight recorder and a span
// ring on unsampled or on sampled traffic: recording costs nothing either.
type ringCase struct {
	name           string
	rings, sampled bool
}

var ringCases = []ringCase{{"bare", false, false}, {"rings", true, false}, {"rings sampled", true, true}}

// path is reinforcedPath over clock (s, or s with an end-of-wake-up edge)
// set up as the case says.
func (rc ringCase) path(t *testing.T, s *sim.Engine, clock sim.Clock, link Link) (*Node, [][]byte, Config) {
	cfg := Config{Clock: clock, Rand: s.Rand()}
	if rc.rings {
		cfg = withRings(cfg, s)
	}
	n, wires := reinforcedPath(t, link, cfg, 201, 3)
	if rc.sampled {
		sample(t, wires, 0x77)
	}
	return n, wires, cfg
}

// The relay budget: reinforced plain Data passing through a node costs
// nothing — it is decoded in place in the payload the link handed over, and
// match, forward, marshal and the flight and span records add none. Node 2
// relays from source 1 to sink 3.
func TestAllocsRelayReceive(t *testing.T) {
	for _, rc := range ringCases {
		t.Run(rc.name, func(t *testing.T) {
			s := sim.New(1)
			link := &countLink{id: 2}
			n, wires, cfg := rc.path(t, s, s, link)
			if got := receiveEach(t, n, link, wires, 1); got != 0 {
				t.Errorf("relaying one reinforced Data allocates %.0f/op, budget 0", got)
			}
			if rc.sampled && cfg.Spans.Total() < uint64(len(wires)) {
				t.Fatalf("%d spans for %d sampled receptions", cfg.Spans.Total(), len(wires))
			}
		})
	}
}

// Corking adds nothing to it: the uncork the node defers each wake-up is
// bound once. Every reception here is a wake-up of its own.
func TestAllocsRelayReceiveCorked(t *testing.T) {
	for _, rc := range ringCases {
		t.Run(rc.name, func(t *testing.T) {
			s := sim.New(1)
			clock := &batchEngine{Engine: s}
			link := &corkCountLink{countLink: countLink{id: 2}}
			n, wires, _ := rc.path(t, s, clock, link)
			clock.endWakeup()
			link.corks = 0
			i := 0
			if got := testing.AllocsPerRun(len(wires)-1, func() {
				n.Receive(1, wires[i])
				clock.endWakeup()
				i++
			}); got != 0 {
				t.Errorf("relaying one reinforced Data over a corked link allocates %.0f/op, budget 0", got)
			}
			if link.corks != len(wires) || link.uncorks != link.corks+1 {
				t.Errorf("%d corks, %d uncorks for %d wake-ups", link.corks, link.uncorks, len(wires))
			}
		})
	}
}

// A duplicate stops at the seen cache: decoded in place, nothing kept. The
// copies are of one flooded message, the duplicate a broadcast medium makes
// (repeated plain Data is a redundant path and draws negative reinforcement).
func TestAllocsDuplicateReceive(t *testing.T) {
	n, link, wires := allocPath(t)
	wires[0][0] = byte(message.ExploratoryData)
	for i := range wires {
		wires[i] = wires[0]
	}
	n.Receive(1, wires[0])
	before := n.Stats.Duplicates
	if got := receiveEach(t, n, link, wires, 0); got != 0 {
		t.Errorf("dropping one duplicate allocates %.0f/op, budget 0", got)
	}
	if dups := n.Stats.Duplicates - before; dups != len(wires) {
		t.Fatalf("%d of %d receptions were duplicates", dups, len(wires))
	}
}

// The sink budget: a matching subscription's callback borrows the receive
// message itself, as a filter does, so delivery costs nothing.
func TestAllocsSinkReceive(t *testing.T) {
	n, link, wires := allocPath(t)
	delivered := 0
	n.SubscribeLocal(lineTask,
		func(*message.Message) { delivered++ })
	if got := receiveEach(t, n, link, wires, 1); got != 0 {
		t.Errorf("delivering one Data to one subscription allocates %.0f/op, budget 0", got)
	}
	if delivered != len(wires) {
		t.Fatalf("delivered %d of %d events", delivered, len(wires))
	}
}

// The send budget: once warm, Send builds its event in the node's one
// origination message, whose vector it reuses, so a source with a reinforced
// downstream gradient sends plain Data for nothing, and an exploratory
// message, flooded from a pooled forward once its jitter runs out, for
// nothing too. Every send must reach the link: a source without a reinforced
// path drops its Data (DataNoPath), and a dropped send proves nothing.
func TestAllocsSendReinforced(t *testing.T) {
	for _, tc := range []struct {
		name        string
		exploratory bool
	}{{"data", false}, {"exploratory", true}} {
		t.Run(tc.name, func(t *testing.T) {
			link := &countLink{id: 1}
			n, s, h := reinforcedSource(t, link)
			send := n.Send
			if tc.exploratory {
				send = n.SendExploratory
			}
			const runs = 200
			before, noPath := link.sends, n.Stats.DataNoPath
			got := testing.AllocsPerRun(runs, func() {
				if err := send(h, lineExtra); err != nil {
					t.Fatal(err)
				}
				if tc.exploratory {
					s.RunUntil(s.Now() + n.cfg.ForwardJitter)
				}
			})
			if sent := link.sends - before; sent != runs+1 || n.Stats.DataNoPath != noPath {
				t.Fatalf("%d transmissions for %d sends (%d without a path), want one each",
					sent, runs+1, n.Stats.DataNoPath-noPath)
			}
			if got != 0 {
				t.Errorf("sending one event allocates %.0f/op, budget 0", got)
			}
		})
	}
}

// The reinforcement budget: a relay whose entry is warm passes each positive
// reinforcement from its sink upstream, and sends a negative one upstream
// once the sink tears its only reinforced gradient down, for nothing. Both
// messages name the entry's own attributes, which transmit only marshals.
func TestAllocsReinforce(t *testing.T) {
	n, link, _ := allocPath(t)
	const runs = 200
	pos, neg := make([][]byte, runs+1), make([][]byte, runs+1)
	for i := range pos {
		id := message.ID{RandID: 3, PktNum: uint32(i + 100)}
		pos[i] = (&message.Message{Class: message.PositiveReinforcement, ID: id, NextHop: 2, Attrs: lineInterest}).Marshal()
		neg[i] = (&message.Message{Class: message.NegativeReinforcement, ID: id, NextHop: 2, Attrs: lineInterest}).Marshal()
	}
	before, negs, i := link.sends, n.Stats.NegReinforcements, 0
	got := testing.AllocsPerRun(runs, func() {
		n.Receive(3, pos[i])
		n.Receive(3, neg[i])
		i++
	})
	if sent := link.sends - before; sent != 2*(runs+1) || n.Stats.NegReinforcements-negs != runs+1 {
		t.Fatalf("%d transmissions, %d negative, for %d runs: want a positive and a negative reinforcement each",
			sent, n.Stats.NegReinforcements-negs, runs+1)
	}
	if got != 0 {
		t.Errorf("passing on a reinforcement and a negative reinforcement allocates %.0f/op, budget 0", got)
	}
}

// The filter budget: a filter borrows the receive message it is handed and
// clones only what it keeps, so a pass-through filter costs nothing, however
// far down the chain and the core the message travels.
func TestAllocsFilteredReceive(t *testing.T) {
	n, link, wires := allocPath(t)
	n.AddFilter(lineTask, 10,
		func(m *message.Message, h FilterHandle) { n.SendMessageToNext(m, h) })
	before := n.Stats.FilterInvocations
	if got := receiveEach(t, n, link, wires, 1); got != 0 {
		t.Errorf("one Data through one pass-through filter allocates %.0f/op, budget 0", got)
	}
	if ran := n.Stats.FilterInvocations - before; ran != len(wires) {
		t.Fatalf("the filter saw %d of %d events", ran, len(wires))
	}
}

// The seen-cache budget: once it has held a population, holding it again
// costs nothing — expired chunks come back from the free list and the
// buckets are not rebuilt. Both placements.
func TestAllocsSeenSteadyState(t *testing.T) {
	for _, stride := range []uint32{1, 4096} {
		c := seenAt(0)
		pkt := uint32(0)
		got := testing.AllocsPerRun(5, func() {
			for i := 0; i < 10_000; i++ {
				pkt += stride
				c.add(message.ID{RandID: 3, PktNum: pkt}, 0)
			}
			c.expire(1, 0)
		})
		if got != 0 || c.live != 0 || c.scattered != (stride > 1) {
			t.Errorf("stride %d: 10 000 IDs through a warm cache allocate %.0f, budget 0 (%d left, scattered %v)",
				stride, got, c.live, c.scattered)
		}
	}
}

// The jittered re-flood budget: once warm, a relay on its Port forwards an
// interest and an exploratory message for nothing — each forward is a
// pooled record armed on the Port, its attributes copied into the record's
// own array, not a clone, a closure and an event. Every run is a fresh
// interest and a fresh exploratory message, and both forwards fire.
func TestAllocsJitteredForward(t *testing.T) {
	link := &countLink{id: 2}
	s, n := forwardRelay(t, link)
	const runs = 200
	interests, exps := make([][]byte, runs+1), make([][]byte, runs+1)
	for i := range interests {
		id := uint32(i + 1)
		interests[i] = (&message.Message{Class: message.Interest, ID: message.ID{RandID: 3, PktNum: id},
			NextHop: message.Broadcast, Attrs: lineInterest}).Marshal()
		exps[i] = (&message.Message{Class: message.ExploratoryData, ID: message.ID{RandID: 1, PktNum: id},
			NextHop: message.Broadcast, Attrs: lineEvent}).Marshal()
	}
	before, i := link.sends, 0
	got := testing.AllocsPerRun(runs, func() {
		n.Receive(3, interests[i])
		n.Receive(1, exps[i])
		s.RunUntil(s.Now() + n.cfg.ForwardJitter)
		i++
	})
	if sent := link.sends - before; sent != 2*(runs+1) {
		t.Fatalf("%d forwards in %d runs, want both each run", sent, runs+1)
	}
	if got != 0 {
		t.Errorf("forwarding an interest and an exploratory message allocates %.0f/op, budget 0", got)
	}
}

// brokerTable is a node with 10⁴ entries, each with a gradient toward
// neighbor 2, and the three entries of it that NeighborDead(9) purges.
func brokerTable() (*Node, []*interestEntry) {
	n := newHandRig(&countLink{id: 1}, false).n
	var named []*interestEntry
	for i := range 10000 {
		e := n.entryFor(lineInterest.With(attr.Int32Attr(attr.KeySequence, attr.EQ, int32(i))), nil)
		n.gradient(e, 2)
		if i%4000 == 17 {
			named = append(named, e)
		}
	}
	return n, named
}

// A neighbor's death at a broker-scale node walks the whole entry table
// and purges exactly the entries with a record for it, allocating
// nothing: of 10⁴ entries three hold a gradient toward the dead neighbor,
// which each run sets up again.
func TestAllocsNeighborDeadBroker(t *testing.T) {
	n, named := brokerTable()
	runs := 0
	allocs := testing.AllocsPerRun(20, func() {
		for _, e := range named {
			n.gradient(e, 9)
		}
		before := n.Stats.GradientsExpired
		n.NeighborDead(9)
		if got := n.Stats.GradientsExpired - before; got != len(named) {
			t.Fatalf("NeighborDead expired %d gradients, want %d", got, len(named))
		}
		runs++
	})
	if allocs != 0 {
		t.Errorf("NeighborDead over 10⁴ entries allocates %.0f, want 0", allocs)
	}
	for _, e := range n.entries {
		if len(e.nbs) != 1 || e.nbs[0].nb != 2 || !e.nbs[0].grad {
			t.Fatalf("entry %x holds %+v after %d deaths, want one gradient toward 2", e.hash, e.nbs, runs)
		}
	}
	if n.Entries() != 10000 {
		t.Errorf("%d entries left, want 10000", n.Entries())
	}
}

// BenchmarkNeighborDeadBroker times that walk: one NeighborDead over 10⁴
// entries, three of them with a gradient toward the dead neighbor.
func BenchmarkNeighborDeadBroker(b *testing.B) {
	n, named := brokerTable()
	b.ResetTimer()
	for range b.N {
		for _, e := range named {
			n.gradient(e, 9)
		}
		n.NeighborDead(9)
	}
}
