package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// Two interests that lineEvent matches: one node keeps two entries for the
// same data, so neighbor sets are gathered across entries.
var (
	nbInterestA = lineInterest
	nbInterestB = lineInterest.With(attr.StringAttr(attr.KeyType, attr.EQ, "diffbench"))
)

// handRig hands a node, ID 1, messages from its neighbors as a link would.
type handRig struct {
	s   *sim.Engine
	n   *Node
	pkt uint32
}

func newHandRig(link Link, custody bool) *handRig {
	s := sim.New(1)
	cfg := Config{Clock: s, Rand: s.Rand(), Link: link, InterestInterval: 10 * time.Second}
	if custody {
		withCustody(&cfg)
	}
	return &handRig{s: s, n: NewNode(cfg)}
}

// from delivers m from neighbor nb, broadcast unless m names a next hop,
// under a fresh ID unless m carries one, and returns the ID.
func (r *handRig) from(nb uint32, m message.Message) message.ID {
	if m.ID == (message.ID{}) {
		r.pkt++
		m.ID = message.ID{RandID: 1000 + nb, PktNum: r.pkt}
	}
	if m.NextHop == 0 {
		m.NextHop = message.Broadcast
	}
	r.n.Receive(nb, m.Marshal())
	return m.ID
}

// interest delivers copies of one interest flood on v from each of nbs,
// each neighbor hops(nb) away from the sink.
func (r *handRig) interest(v attr.Vec, hops func(nb uint32) uint8, nbs ...uint32) {
	r.pkt++
	id := message.ID{RandID: 999, PktNum: r.pkt}
	for _, nb := range nbs {
		r.from(nb, message.Message{Class: message.Interest, ID: id, HopCount: hops(nb), Attrs: v})
	}
}

func oneHop(uint32) uint8 { return 1 }

// checkRecordsLive fails unless every entry's records are ascending and
// live.
func checkRecordsLive(t *testing.T, n *Node, when string) {
	t.Helper()
	for _, e := range n.entries {
		for i, r := range e.nbs {
			if i > 0 && e.nbs[i-1].nb >= r.nb {
				t.Errorf("%s: entry %x records out of order at %d", when, e.hash, i)
			}
			if !e.live(&r) {
				t.Errorf("%s: entry %x keeps a dead record for %d", when, e.hash, r.nb)
			}
		}
	}
}

// checkDeadForgotten fails unless no state routes through dead neighbor
// nb: no entry's reinforcement or exploratory trace names it, and its one
// possible record is custody's stale mark.
func checkDeadForgotten(t *testing.T, n *Node, nb message.NodeID, custody bool) {
	t.Helper()
	for _, e := range n.entries {
		if e.hasReinforcedUpstream && e.reinforcedUpstream == nb || e.hasExpFrom && e.lastExpFrom == nb {
			t.Errorf("entry %x still traces through dead neighbor %d", e.hash, nb)
		}
		if r := e.find(nb); r != nil && (!custody || *r != nbRecord{nb: nb, stale: true}) {
			t.Errorf("entry %x keeps %+v for dead neighbor %d", e.hash, *r, nb)
		}
	}
}

// recordsFor returns every entry's record for nb.
func recordsFor(n *Node, nb message.NodeID) []nbRecord {
	var out []nbRecord
	for _, e := range n.entries {
		if r := e.find(nb); r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// The per-neighbor table holds what is live and nothing else: after every
// compact each record is live, and a dead neighbor, or one whose last
// gradient expired, leaves no record behind without custody; with custody
// the one thing left is the stale mark that store-and-carry replay falls
// back on.
func TestNeighborTableExact(t *testing.T) {
	for _, custody := range []bool{false, true} {
		t.Run(fmt.Sprintf("custody=%v", custody), func(t *testing.T) {
			r := newHandRig(&countLink{id: 1}, custody)
			n := r.n
			// Gradients toward 2, 3 and 4 on both entries. 5 delivers
			// exploratory data, which 2 reinforces, so 5 is both entries'
			// exploratory trace and A's reinforced upstream. 3 sends a
			// duplicate of plain data.
			r.interest(nbInterestA, oneHop, 2, 3, 4)
			r.interest(nbInterestB, oneHop, 2, 3, 4)
			exp := r.from(5, message.Message{Class: message.ExploratoryData, HopCount: 1, Attrs: lineEvent})
			r.from(2, message.Message{Class: message.PositiveReinforcement, ID: exp, NextHop: 1, Attrs: nbInterestA})
			data := r.from(3, message.Message{Class: message.Data, HopCount: 1, Attrs: lineEvent})
			r.from(3, message.Message{Class: message.Data, ID: data, HopCount: 1, Attrs: lineEvent})
			if n.Entries() != 2 {
				t.Fatalf("%d entries, want 2", n.Entries())
			}
			for _, nb := range []message.NodeID{2, 3, 4, 5} {
				if got := len(recordsFor(n, nb)); got != 2 {
					t.Fatalf("%d entries hold a record for %d, want 2", got, nb)
				}
			}
			if up, ok := n.ReinforcedUpstream(lineTask); !ok || up != 5 {
				t.Fatalf("reinforced upstream %d/%v, want 5", up, ok)
			}
			checkRecordsLive(t, n, "set-up")

			n.NeighborDead(3)
			n.NeighborDead(5)
			checkRecordsLive(t, n, "after NeighborDead")
			checkDeadForgotten(t, n, 3, custody)
			checkDeadForgotten(t, n, 5, custody)
			// 2 refreshes, 4 goes silent: its gradients expire.
			for at := 5 * time.Second; at < time.Minute; at += 5 * time.Second {
				r.s.After(at, func() {
					r.interest(nbInterestA, oneHop, 2)
					r.interest(nbInterestB, oneHop, 2)
				})
			}
			r.s.RunUntil(time.Minute)
			checkRecordsLive(t, n, "after expiry")

			if n.Entries() != 2 || len(recordsFor(n, 2)) != 2 {
				t.Fatalf("%d entries, %d with a record for 2; want 2 and 2", n.Entries(), len(recordsFor(n, 2)))
			}
			if got := recordsFor(n, 5); len(got) != 0 {
				t.Errorf("records for dead neighbor 5, which never held a gradient: %+v", got)
			}
			for _, nb := range []message.NodeID{3, 4} {
				got := recordsFor(n, nb)
				if !custody {
					if len(got) != 0 {
						t.Errorf("neighbor %d: records %+v, want none", nb, got)
					}
					continue
				}
				want := nbRecord{nb: nb, stale: true}
				if len(got) != 2 || got[0] != want || got[1] != want {
					t.Errorf("neighbor %d: records %+v, want two stale marks", nb, got)
				}
			}
		})
	}
}

// custodyLogLink is a logLink with a custody-transfer surface that logs
// offers too and never acknowledges them.
type custodyLogLink struct{ *logLink }

func (l custodyLogLink) SendCustody(dst uint32, id message.ID, p []byte) error {
	l.log = append(l.log, fmt.Sprintf("%v custody %d %x", l.clock.Now(), dst, p))
	return nil
}

// neighborWalks runs one node with six neighbors, two matching entries and
// custody on through reinforcement, duplicate data, a neighbor death,
// gradient expiry and custody replay, and returns its send transcript.
func neighborWalks(custodyLink bool) string {
	l := &logLink{}
	var link Link = l
	if custodyLink {
		link = custodyLogLink{l}
	}
	r := newHandRig(link, true)
	l.clock = r.s
	nbs := []uint32{2, 3, 4, 5, 6, 7}
	hops := func(nb uint32) uint8 { return uint8(nb % 3) }
	r.interest(nbInterestA, hops, nbs...)
	r.interest(nbInterestB, hops, nbs...)
	exp := r.from(7, message.Message{Class: message.ExploratoryData, HopCount: 2, Attrs: lineEvent})
	for _, nb := range []uint32{5, 2, 4} {
		r.from(nb, message.Message{Class: message.PositiveReinforcement, ID: exp, NextHop: 1, Attrs: nbInterestA})
	}
	r.from(4, message.Message{Class: message.PositiveReinforcement, ID: exp, NextHop: 1, Attrs: nbInterestB})
	data := func(from uint32) message.ID {
		return r.from(from, message.Message{Class: message.Data, HopCount: 3, Attrs: lineEvent})
	}
	data(7)
	dup := data(6)
	for i := 0; i < 3; i++ {
		r.from(6, message.Message{Class: message.Data, ID: dup, HopCount: 3, Attrs: lineEvent})
	}
	// 2 and 3 refresh for 40 s, the others go silent; then everything
	// decays, and data keeps arriving into custody throughout.
	for at := 10 * time.Second; at <= 40*time.Second; at += 10 * time.Second {
		r.s.After(at, func() {
			r.interest(nbInterestA, hops, 3, 2)
			r.interest(nbInterestB, hops, 2)
		})
	}
	for at := 2 * time.Second; at < 90*time.Second; at += 7 * time.Second {
		r.s.After(at, func() { data(7) })
	}
	r.s.RunUntil(time.Second)
	r.n.NeighborDead(4)
	data(7)
	r.s.RunUntil(2 * time.Minute)
	return strings.Join(l.log, "\n")
}

// Every walk over a node's neighbors runs in one order: 20 runs of one
// seed give one send transcript on both custody paths.
func TestNeighborWalksDeterministic(t *testing.T) {
	for _, custodyLink := range []bool{false, true} {
		transcripts := map[string]bool{}
		for run := 0; run < 20; run++ {
			transcripts[neighborWalks(custodyLink)] = true
		}
		if len(transcripts) != 1 {
			t.Errorf("custody link %v: 20 runs of one seed gave %d send transcripts", custodyLink, len(transcripts))
		}
	}
}
