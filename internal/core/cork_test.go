package core

import (
	"testing"

	"diffusion/internal/sim"
)

// corkCountLink is a countLink that can cork: it counts the calls and what it
// holds between them.
type corkCountLink struct {
	countLink
	corks, uncorks, held int
	corked               bool
}

func (l *corkCountLink) Cork() { l.corks++; l.corked = true }
func (l *corkCountLink) Uncork() {
	l.uncorks++
	l.corked, l.held = false, 0
}

func (l *corkCountLink) Send(dst uint32, payload []byte) error {
	if l.corked {
		l.held++
	}
	return l.countLink.Send(dst, payload)
}

// batchEngine is the simulator's clock with the live loop's end-of-batch
// edge, which the test drives by hand.
type batchEngine struct {
	*sim.Engine
	deferred []func()
}

func (b *batchEngine) Defer(fn func()) { b.deferred = append(b.deferred, fn) }

func (b *batchEngine) endWakeup() {
	for _, fn := range b.deferred {
		fn()
	}
	b.deferred = b.deferred[:0]
}

// A node corks only when its clock has an end of batch to uncork at and its
// link can cork: on the simulator's clock, or over a link without the
// surface, every transmission goes straight to Send as it always has.
func TestNodeCorksOnlyWithBatchClock(t *testing.T) {
	t.Run("plain clock", func(t *testing.T) {
		link := &corkCountLink{countLink: countLink{id: 2}}
		n, wires := reinforcedPath(t, link, Config{}, 2, 3)
		n.Receive(1, wires[0])
		n.Receive(1, wires[1])
		if link.sends == 0 || link.corks != 0 || link.uncorks != 0 {
			t.Errorf("%d sends, %d corks, %d uncorks on a clock without Defer; want sends and no corking", link.sends, link.corks, link.uncorks)
		}
	})
	t.Run("plain link", func(t *testing.T) {
		s := sim.New(1)
		clock := &batchEngine{Engine: s}
		link := &countLink{id: 2}
		n, wires := reinforcedPath(t, link, Config{Clock: clock, Rand: s.Rand()}, 1, 3)
		before := link.sends
		n.Receive(1, wires[0])
		if link.sends != before+1 || len(clock.deferred) != 0 {
			t.Errorf("%d sends, %d deferred calls over a link that cannot cork; want 1 and 0", link.sends-before, len(clock.deferred))
		}
	})
	t.Run("both", func(t *testing.T) {
		s := sim.New(1)
		clock := &batchEngine{Engine: s}
		link := &corkCountLink{countLink: countLink{id: 2}}
		n, wires := reinforcedPath(t, link, Config{Clock: clock, Rand: s.Rand()}, 4, 3)
		clock.endWakeup() // the set-up's transmissions
		link.corks, link.uncorks = 0, 0

		// One wake-up, three forwards: one cork, one deferred uncork.
		for _, w := range wires[:3] {
			n.Receive(1, w)
		}
		if link.corks != 1 || link.held != 3 || len(clock.deferred) != 1 || link.uncorks != 0 {
			t.Fatalf("mid wake-up: %d corks, %d held, %d deferred, %d uncorks; want 1, 3, 1, 0", link.corks, link.held, len(clock.deferred), link.uncorks)
		}
		clock.endWakeup()
		if link.uncorks != 1 || link.corked {
			t.Fatalf("after the wake-up: %d uncorks, corked %v", link.uncorks, link.corked)
		}
		// The next wake-up corks afresh; a wake-up that neither receives nor
		// sends does not, and one that receives but sends nothing — a sink's,
		// or a duplicate's — does, so that the link's held acks leave.
		clock.endWakeup()
		n.Receive(1, wires[3])
		clock.endWakeup()
		if link.corks != 2 || link.uncorks != 2 {
			t.Errorf("second wake-up: %d corks, %d uncorks; want 2 and 2", link.corks, link.uncorks)
		}
		sends := link.sends
		n.Receive(1, wires[3])
		clock.endWakeup()
		if link.sends != sends || link.corks != 3 || link.uncorks != 3 {
			t.Errorf("a duplicate's wake-up: %d sends, %d corks, %d uncorks; want 0, 3 and 3", link.sends-sends, link.corks, link.uncorks)
		}
	})
}

// Detach and Close cancel timers, not the wake-up: the uncork already
// deferred still runs, so a crash or a shutdown inside a corked wake-up
// leaves nothing in the link's hands.
func TestDetachAndCloseInsideCorkedWakeup(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*Node)
	}{
		{"detach", (*Node).Detach},
		{"close", (*Node).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			clock := &batchEngine{Engine: s}
			link := &corkCountLink{countLink: countLink{id: 2}}
			n, wires := reinforcedPath(t, link, Config{Clock: clock, Rand: s.Rand()}, 1, 3)
			clock.endWakeup()

			n.Receive(1, wires[0])
			if !link.corked || link.held != 1 {
				t.Fatalf("corked %v holding %d before the stop; want true and 1", link.corked, link.held)
			}
			tc.stop(n)
			clock.endWakeup()
			if link.corked || link.held != 0 {
				t.Errorf("corked %v holding %d after the wake-up; want false and 0", link.corked, link.held)
			}
		})
	}
}
