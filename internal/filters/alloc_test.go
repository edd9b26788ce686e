//go:build !race

package filters

import (
	"testing"

	"diffusion/internal/attr"
	"diffusion/internal/message"
	"diffusion/internal/nettest"
)

// Naming an event costs nothing: its identity is built in the filter's own
// buffer and looked up without becoming a string, so a duplicate is dropped
// for free and a first sighting pays only for the key the map keeps. (The
// first sighting is then handed on to a node with no gradient for it, which
// drops it without allocating.)
func TestAllocsSuppressionDuplicate(t *testing.T) {
	tn := nettest.New(1)
	sup := NewSuppression(tn.AddNode(1, nil), tn.Sched, SuppressionOptions{})
	m := &message.Message{Class: message.Data, ID: message.ID{RandID: 7, PktNum: 1}, PrevHop: 2, NextHop: 1}
	event := func(seq int32) {
		m.ID.PktNum++
		m.Attrs = append(m.Attrs[:0], attr.StringAttr(attr.KeyTask, attr.IS, "surveillance"),
			attr.Int32Attr(attr.KeySequence, attr.IS, seq), attr.ClassIsData())
		sup.onMessage(m, sup.handle)
	}
	event(1000)
	if got := testing.AllocsPerRun(200, func() { event(1000) }); got != 0 {
		t.Errorf("suppressing a duplicate allocates %.0f/op, budget 0", got)
	}
	seq := int32(1000)
	if got := testing.AllocsPerRun(200, func() { seq++; event(seq) }); got > 1 {
		t.Errorf("passing a first sighting allocates %.0f/op, budget 1", got)
	}
	if sup.Suppressed != 201 || sup.Passed != 202 {
		t.Errorf("suppressed %d, passed %d; want 201 and 202", sup.Suppressed, sup.Passed)
	}
}
