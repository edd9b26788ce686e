package telemetry

import (
	"testing"
	"time"
	"unsafe"

	"diffusion/internal/message"
)

// clockAt returns a ring clock that reads *now.
func clockAt(now *time.Duration) func() time.Duration {
	return func() time.Duration { return *now }
}

func TestSpanRingWraps(t *testing.T) {
	var now time.Duration
	r := NewRing(4, clockAt(&now))
	for i := 0; i < 6; i++ {
		now = time.Duration(i) * time.Second
		r.Record(Event{Flow: uint16(i + 1), At: time.Hour})
	}
	if n := len(r.Records()); n != 4 || r.Total() != 6 {
		t.Fatalf("Len=%d Total=%d, want 4, 6", n, r.Total())
	}
	for i, e := range r.Records() {
		if want := uint16(i + 3); e.Flow != want || e.At != time.Duration(i+2)*time.Second {
			t.Errorf("event[%d] = flow %d at %v, want flow %d stamped by the ring (oldest-first after wrap)",
				i, e.Flow, e.At, want)
		}
	}
	var nilRing *Ring
	nilRing.Record(Event{}) // a nil ring records nothing
}

// Keep retains, from the call on and past the overwrite window, the first
// n events its predicate accepts, and counts the rest.
func TestRingKeep(t *testing.T) {
	var now time.Duration
	r := NewRing(2, clockAt(&now))
	r.Record(Event{Flow: 1}) // before Keep: not retained
	r.Keep(3, func(e Event) bool { return e.Flow%2 == 1 })
	for i := 2; i <= 10; i++ {
		now = time.Duration(i) * time.Second
		r.Record(Event{Flow: uint16(i)})
	}
	kept, dropped := r.Kept()
	if len(kept) != 3 || dropped != 1 {
		t.Fatalf("kept %d, dropped %d: want 3 of the 4 odd flows after Keep, 1 dropped", len(kept), dropped)
	}
	for i, e := range kept {
		if want := uint16(2*i + 3); e.Flow != want || e.At != time.Duration(want)*time.Second {
			t.Errorf("kept[%d] = flow %d at %v, want flow %d, stamped", i, e.Flow, e.At, want)
		}
	}
	if n := len(r.Records()); n != 2 || r.Total() != 10 {
		t.Errorf("Len=%d Total=%d: the ring itself still keeps the last 2 of 10", n, r.Total())
	}
	r.Keep(1, func(Event) bool { return true })
	if kept, dropped := r.Kept(); len(kept) != 0 || dropped != 0 {
		t.Errorf("a second Keep holds %d, dropped %d: want a fresh start", len(kept), dropped)
	}
}

func TestSpanRingDefaultSize(t *testing.T) {
	if got := NewRing(0, nil).buf; len(got) != DefaultSpanSize {
		t.Errorf("default ring size %d, want %d", len(got), DefaultSpanSize)
	}
	for size, want := range map[int]int{1: 1, 5: 8, DefaultFlightSize: DefaultFlightSize} {
		if got := len(NewRing(size, nil).buf); got != want {
			t.Errorf("NewRing(%d) holds %d, want %d", size, got, want)
		}
	}
}

// TestEventSize pins the record at 32 bytes: a live node's 256-record
// flight ring is 8 KiB, and a Trace keeps 32 B per kept event.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 32 {
		t.Errorf("Event is %d bytes, want 32", got)
	}
}

func TestSpanTraceRecord(t *testing.T) {
	e := Event{
		At:     1500 * time.Microsecond,
		Node:   4,
		Peer:   3,
		ID:     message.ID{RandID: 0xAB, PktNum: 7},
		Flow:   0x1234,
		Hop:    2,
		Verb:   Drop,
		Layer:  LayerCore,
		Reason: DropLinkRefused,
		Class:  message.Data,
	}
	r := e.Record()
	if r.US != 1500 || r.Node != 4 || r.Peer != 3 || r.From != 0 || r.Flow != 0x1234 || r.Hops != 2 {
		t.Errorf("record fields wrong: %+v", r)
	}
	if r.Layer != "core" || r.Verb != "drop" || r.Cause != "link-refused" || r.Class != "DATA" {
		t.Errorf("record names wrong: %+v", r)
	}
	e.Reason = DropNone
	if got := e.Record().Cause; got != "" {
		t.Errorf("DropNone should omit cause, got %q", got)
	}
	// The trace's org/fwd name the neighbor the message came from.
	e.Verb = Fwd
	if r := e.Record(); r.From != 3 || r.Peer != 0 || r.Verb != "fwd" {
		t.Errorf("fwd record: %+v", r)
	}
}

func TestSpanEventNames(t *testing.T) {
	want := []string{"recv", "match", "enqueue", "tx", "custody-accept",
		"custody-replay", "deliver", "drop", "send", "fault", "org", "fwd"}
	if len(verbNames) != len(want) {
		t.Fatalf("%d verbs, want %d", len(verbNames), len(want))
	}
	for v := range verbNames {
		if got := Verb(v).String(); got != want[v] {
			t.Errorf("verb %d = %q, want %q", v, got, want[v])
		}
	}
	if got := Verb(len(want)).String(); got != "Verb(12)" {
		t.Errorf("unknown verb renders %q", got)
	}
}
