package core

import (
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/message"
)

// TestNeighborDeadPurgesGradientState checks the bookkeeping effects of a
// dead-neighbor event in isolation: gradients toward the peer vanish,
// empty entries are collected, and the accounting moves.
func TestNeighborDeadPurgesGradientState(t *testing.T) {
	tn := newTestNet(11)
	nodes := tn.line(2)
	nodes[0].Subscribe(surveillanceInterest(), func(*message.Message) {})
	tn.s.RunUntil(2 * time.Second)

	relay := nodes[1]
	if relay.Entries() != 1 {
		t.Fatalf("relay entries = %d, want 1", relay.Entries())
	}
	expiredBefore := relay.Stats.GradientsExpired

	// The sink (neighbor 1) dies: the relay's only gradient pointed there,
	// so the whole entry must be collected.
	relay.NeighborDead(1)
	if relay.Stats.NeighborDeaths != 1 {
		t.Fatalf("neighbor deaths = %d, want 1", relay.Stats.NeighborDeaths)
	}
	if relay.Stats.GradientsExpired != expiredBefore+1 {
		t.Fatalf("gradients expired = %d, want %d",
			relay.Stats.GradientsExpired, expiredBefore+1)
	}
	if relay.Entries() != 0 {
		t.Fatalf("relay entries after death = %d, want 0", relay.Entries())
	}

	// A dead-neighbor event on a detached node is ignored.
	relay.Detach()
	relay.NeighborDead(2)
	if relay.Stats.NeighborDeaths != 1 {
		t.Fatal("detached node processed a dead-neighbor event")
	}
}

// TestNeighborDeadRepairsAroundDeadRelay is the diamond-repair scenario:
// sink 1 and source 4 joined through relays 2 and 3. After the reinforced
// relay dies and the failure detector notifies its neighbors, delivery
// must resume over the surviving relay — driven by the prompt interest
// re-flood and the re-primed exploratory data, not by waiting out the
// soft-state lifetimes (which are set long enough here that passive decay
// alone could not repair within the test horizon).
func TestNeighborDeadRepairsAroundDeadRelay(t *testing.T) {
	tn := newTestNet(7)
	slow := func(c *Config) {
		c.InterestInterval = 30 * time.Second
		c.GradientLifetime = 75 * time.Second
		c.ExploratoryEvery = 0
		c.ExploratoryInterval = 60 * time.Second
		c.ReinforcementTimeout = 150 * time.Second
	}
	sink := tn.addNode(1, slow)
	tn.addNode(2, slow)
	tn.addNode(3, slow)
	source := tn.addNode(4, slow)
	tn.connect(1, 2)
	tn.connect(1, 3)
	tn.connect(2, 4)
	tn.connect(3, 4)

	delivered := 0
	sink.Subscribe(surveillanceInterest(), func(m *message.Message) { delivered++ })
	pub := source.Publish(surveillancePublication())
	seq := int32(0)
	tn.s.Every(time.Second, 500*time.Millisecond, func() {
		seq++
		source.Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
	})
	tn.s.RunUntil(5 * time.Second)

	relay, ok := sink.ReinforcedUpstream(surveillanceInterest())
	if !ok || (relay != 2 && relay != 3) {
		t.Fatalf("sink reinforced upstream = %d/%v, want relay 2 or 3", relay, ok)
	}
	if delivered == 0 {
		t.Fatal("no deliveries before the fault")
	}

	// Kill the reinforced relay and deliver the detector's verdict to its
	// neighbors, exactly what the live stack does via OnStateChange.
	tn.dead[relay] = true
	sink.NeighborDead(relay)
	source.NeighborDead(relay)

	before := delivered
	tn.s.RunUntil(10 * time.Second)
	if delivered <= before {
		t.Fatalf("no deliveries in 5s after repair (total %d)", delivered)
	}
	other := uint32(5 - relay) // 2↔3
	if up, ok := sink.ReinforcedUpstream(surveillanceInterest()); !ok || up != other {
		t.Fatalf("sink reinforced upstream after repair = %d/%v, want %d", up, ok, other)
	}
	// The repaired path must deliver most of the post-fault traffic: sends
	// are every 500ms, so 5 sim-seconds offer ~10 opportunities.
	if delivered-before < 5 {
		t.Fatalf("only %d deliveries in 5s after repair", delivered-before)
	}
}

// NeighborDead collects every empty entry — no gradient, no local sink —
// when custody is off, the ones the dead neighbor never touched included;
// with custody on it keeps them all as cached interests.
func TestNeighborDeadCollectsEmptyEntries(t *testing.T) {
	for _, custody := range []bool{false, true} {
		n := newHandRig(&countLink{id: 1}, custody).n
		entry := func(i int32) *interestEntry {
			return n.entryFor(lineInterest.With(attr.Int32Attr(attr.KeySequence, attr.EQ, i)), nil)
		}
		untouched, emptied, live := entry(1), entry(2), entry(3)
		n.gradient(emptied, 9)
		n.gradient(live, 2)
		n.NeighborDead(9)
		for _, c := range []struct {
			name string
			e    *interestEntry
			want bool
		}{{"untouched empty", untouched, custody}, {"emptied", emptied, custody}, {"live", live, true}} {
			if _, kept := n.entries[c.e.hash]; kept != c.want {
				t.Errorf("custody %v: %s entry kept = %v, want %v", custody, c.name, kept, c.want)
			}
		}
	}
}
