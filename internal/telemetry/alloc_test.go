//go:build !race

package telemetry

import (
	"testing"
	"time"

	"diffusion/internal/message"
)

// The ring budget: recording an event into a full, wrapping ring — what
// every reception and transmission does at every node — allocates nothing.
func TestAllocsRingRecord(t *testing.T) {
	r := NewRing(64, func() time.Duration { return time.Second })
	e := Event{Node: 3, Verb: Recv, Class: message.Data}
	if n := testing.AllocsPerRun(1000, func() { r.Record(e) }); n != 0 {
		t.Errorf("Ring.Record allocates %.1f/op, budget 0", n)
	}
}
