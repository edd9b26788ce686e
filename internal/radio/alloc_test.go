//go:build !race

package radio

import (
	"testing"
	"time"

	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// One frame heard by eight receivers costs the engine two events — one
// arrival, one end-of-frame fan-out — and allocates nothing: the
// transmission record, its audience, its keys and the buffer its data is
// copied into come from the channel's free list.
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
	steps := 0
	round := func() {
		s.Arm(&tx, time.Millisecond)
		for s.Step() {
			steps++
		}
	}
	round() // fill the free list
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a frame to 8 receivers allocates %.0f in steady state, want 0", n)
	}
	if heard != 8*102 {
		t.Errorf("%d receptions delivered, want %d", heard, 8*102)
	}
	if want := 102 * (1 + 2); steps != want {
		t.Errorf("%d kernel events for 102 frames, want %d: the driver's own and 2 per frame", steps, want)
	}
}
