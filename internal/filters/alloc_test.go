//go:build !race

package filters

import (
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/message"
	"diffusion/internal/nettest"
)

// Naming an event costs nothing: its identity is built in the filter's own
// buffer and looked up without becoming a string, so a duplicate is dropped
// for free, and a first sighting's key is cut from an arena that costs one
// allocation per few dozen keys. (The first sighting is then handed on to a
// node with no gradient for it, which drops it without allocating.)
func TestAllocsSuppressionDuplicate(t *testing.T) {
	tn := nettest.New(1)
	sup := NewSuppression(tn.AddNode(1, nil), tn.Sched, SuppressionOptions{})
	m := &message.Message{Class: message.Data, ID: message.ID{RandID: 7, PktNum: 1}, PrevHop: 2, NextHop: 1}
	event := func(sup *Suppression, seq int32) {
		m.ID.PktNum++
		m.Attrs = append(m.Attrs[:0], attr.StringAttr(attr.KeyTask, attr.IS, "surveillance"),
			attr.Int32Attr(attr.KeySequence, attr.IS, seq), attr.ClassIsData())
		sup.onMessage(m, sup.handle)
	}
	event(sup, 1000)
	if got := testing.AllocsPerRun(200, func() { event(sup, 1000) }); got != 0 {
		t.Errorf("suppressing a duplicate allocates %.0f/op, budget 0", got)
	}
	seq := int32(1000)
	if got := testing.AllocsPerRun(200, func() { seq++; event(sup, seq) }); got != 0 {
		t.Errorf("passing a first sighting allocates %.0f/op, budget 0", got)
	}
	if sup.Suppressed != 201 || sup.Passed != 202 {
		t.Errorf("suppressed %d, passed %d; want 201 and 202", sup.Suppressed, sup.Passed)
	}

	// A stream of first sightings a millisecond apart, remembered for a
	// second: gc holds the map within two seconds of keys, so once warm it
	// stops growing, and what the stream costs is its key arenas.
	turnover := NewSuppression(tn.AddNode(2, nil), tn.Sched, SuppressionOptions{TTL: time.Second})
	const sightings = 10_000
	if got := testing.AllocsPerRun(1, func() {
		for i := 0; i < sightings; i++ {
			tn.Sched.RunUntil(tn.Sched.Now() + time.Millisecond)
			seq++
			event(turnover, seq)
		}
	}); got > sightings/32 {
		t.Errorf("%d first sightings allocate %.0f, budget %d", sightings, got, sightings/32)
	}
	if turnover.Passed != 2*sightings || len(turnover.seen) > 2001 {
		t.Errorf("passed %d of %d, %d keys held", turnover.Passed, 2*sightings, len(turnover.seen))
	}
}

// Folding a reading into a pending fused event allocates nothing: its
// identity is built in the filter's own buffer with a shared key list. (The
// modality list grows by doubling, which AllocsPerRun averages away.)
func TestAllocsFusionFold(t *testing.T) {
	tn := nettest.New(1)
	fu := NewFusion(tn.AddNode(1, nil), tn.Sched, nil, time.Second)
	m := &message.Message{Class: message.Data, ID: message.ID{RandID: 7, PktNum: 1}, PrevHop: 2, NextHop: 1}
	m.Attrs = attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "detect"), attr.Int32Attr(attr.KeySequence, attr.IS, 1),
		attr.StringAttr(attr.KeyType, attr.IS, "seismic"), attr.Float64Attr(attr.KeyConfidence, attr.IS, 0.5),
		attr.ClassIsData()}
	fu.onMessage(m, fu.handle)
	if got := testing.AllocsPerRun(200, func() { fu.onMessage(m, fu.handle) }); got != 0 {
		t.Errorf("folding a reading into a pending event allocates %.0f/op, budget 0", got)
	}
	if fu.Fused != 201 {
		t.Errorf("fused %d readings, want 201", fu.Fused)
	}
}
