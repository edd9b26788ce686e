//go:build !race

package mac

import (
	"testing"

	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// A 112-byte message (the paper's event: five 27-byte fragments) from
// sender to receiver allocates nothing in steady state: the queue entry
// with its fragment array and train, the radio's copy of each frame, the
// transmit pump's ten steps, the five receptions, the reassembly entry, the
// buffer it is reassembled in (lent to the handler, then idle again) and the
// expiry timer are all reused.
func TestAllocsFiveFragmentMessage(t *testing.T) {
	s := sim.New(1)
	ch := radio.NewChannel(s, topo.Line(2, 5), radio.PerfectParams())
	delivered := 0
	m1 := Attach(s, ch, 1, DefaultParams(), nil)
	Attach(s, ch, 2, DefaultParams(), func(uint32, []byte) { delivered++ })
	payload := make([]byte, 112)
	round := func() {
		if err := m1.Send(Broadcast, payload); err != nil {
			t.Fatal(err)
		}
		s.Run()
	}
	round() // fill the free lists
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a 5-fragment message allocates %.0f end to end, want 0", n)
	}
	if delivered != 102 || m1.Stats.FragmentsSent != 5*102 {
		t.Errorf("delivered %d messages in %d fragments, want 102 in %d", delivered, m1.Stats.FragmentsSent, 5*102)
	}
}

// Eight senders' trains interleaved at one receiver, fragment by fragment,
// allocate nothing once warm: the eight messages under reassembly at once
// are entries of one slice, timed by one timer, and their buffers are the
// eight idle ones the MAC keeps.
func TestAllocsInterleavedTrains(t *testing.T) {
	_, rx, senders, _ := rig(8)
	rx.handler = func(uint32, []byte) {} // the log's copy would allocate
	trains := make([][][]byte, len(senders))
	for i, m := range senders {
		trains[i] = train(m, 1, counted(112, byte(i)))
	}
	round := func() {
		for f := range trains[0] {
			for i, m := range senders {
				rx.onFrame(m.ID(), trains[i][f])
			}
		}
	}
	round() // grow the slice of messages under reassembly and fill the idle buffers
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("8 interleaved messages allocate %.0f, want 0", n)
	}
	if rx.Stats.MessagesDelivered != 8*102 {
		t.Errorf("%d messages delivered, want %d", rx.Stats.MessagesDelivered, 8*102)
	}
}
