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
// with its train of fragments, the radio's copy of each frame, the
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
		for s.Step() {
		}
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
// are entries of one slice, timed by one timer, and their buffers are
// eight of the idle ones the MAC keeps.
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

// Twelve senders' trains of 2 to 6 fragments, interleaved at one receiver
// fragment by fragment, with a quarter of them one fragment short and left
// to expire, allocate nothing once warm: twelve trains of five sizes are
// under reassembly at once, and each takes the smallest idle buffer with
// room.
func TestAllocsInterleavedTrainsExpiring(t *testing.T) {
	s, rx, senders, _ := rig(12)
	rx.handler = func(uint32, []byte) {}
	trains := make([][][]byte, len(senders))
	for i, m := range senders {
		trains[i] = train(m, 1, counted((2+i%5)*DefaultParams().FragmentPayload-i, byte(i)))
		if i%4 == 3 {
			trains[i] = trains[i][:len(trains[i])-1]
		}
	}
	round := func() {
		for f := range 6 {
			for i, m := range senders {
				if f < len(trains[i]) {
					rx.onFrame(m.ID(), trains[i][f])
				}
			}
		}
		s.RunUntil(s.Now() + DefaultParams().ReassemblyTimeout)
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("12 interleaved trains, 3 expiring, allocate %.0f, want 0", n)
	}
	if rx.Stats.MessagesDelivered != 9*102 || rx.Stats.ReassemblyExpired != 3*102 {
		t.Errorf("%d delivered and %d expired, want %d and %d",
			rx.Stats.MessagesDelivered, rx.Stats.ReassemblyExpired, 9*102, 3*102)
	}
}

// A sender that queues ten messages of different sizes before its pump
// runs allocates nothing once warm: it keeps a queue entry for each, so
// no Send makes one, and each entry's train has grown to fit.
func TestAllocsQueuedBurst(t *testing.T) {
	s := sim.New(1)
	ch := radio.NewChannel(s, topo.Line(2, 5), radio.PerfectParams())
	delivered := 0
	m1 := Attach(s, ch, 1, DefaultParams(), nil)
	Attach(s, ch, 2, DefaultParams(), func(uint32, []byte) { delivered++ })
	payload := make([]byte, 112)
	round := func() {
		for i := range 10 {
			if err := m1.Send(Broadcast, payload[:10+10*i]); err != nil {
				t.Fatal(err)
			}
		}
		for s.Step() {
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("10 queued messages allocate %.0f, want 0", n)
	}
	if delivered != 10*102 {
		t.Errorf("delivered %d messages, want %d", delivered, 10*102)
	}
}
