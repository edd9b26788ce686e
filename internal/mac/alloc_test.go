//go:build !race

package mac

import (
	"testing"

	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// A 112-byte message (the paper's event: five 27-byte fragments) from
// sender to receiver costs nine allocations in steady state: on Send the
// queue entry, the array of fragment slices and the one backing array of
// the whole fragment train (3); the radio's copy of each frame it sends (5);
// the reassembled payload handed up (1). The transmit pump's ten steps, the
// five receptions, the reassembly record and its expiry timer cost none.
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
	if n := testing.AllocsPerRun(100, round); n != 9 {
		t.Errorf("a 5-fragment message allocates %.0f end to end, want 9", n)
	}
	if delivered != 102 || m1.Stats.FragmentsSent != 5*102 {
		t.Errorf("delivered %d messages in %d fragments, want 102 in %d", delivered, m1.Stats.FragmentsSent, 5*102)
	}
}
