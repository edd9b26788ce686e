//go:build !race

package radio

import (
	"testing"
	"time"

	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// One frame heard by eight receivers allocates its one data copy and
// nothing per reception: the reception records and both of each one's
// events come from the channel's free list.
func TestAllocsTransmitSteadyState(t *testing.T) {
	s := sim.New(1)
	c := NewChannel(s, topo.Grid(3, 3, 5), PerfectParams())
	heard := 0
	var center *Transceiver
	for _, id := range c.topo.IDs() {
		tr := c.Attach(id, func(uint32, []byte) { heard++ })
		if id == 5 {
			center = tr
		}
	}
	payload := make([]byte, 35)
	var tx sim.Event
	tx.Bind(func() { center.Transmit(payload) })
	round := func() {
		s.Arm(&tx, time.Millisecond)
		s.Run()
	}
	round() // fill the free list
	if n := testing.AllocsPerRun(100, round); n != 1 {
		t.Errorf("a frame to 8 receivers allocates %.0f in steady state, want 1 (the data copy)", n)
	}
	if heard != 8*102 {
		t.Errorf("%d receptions delivered, want %d", heard, 8*102)
	}
}
