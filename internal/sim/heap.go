package sim

import "time"

// Event-class tags of the canonical order. Every event in a run is totally
// ordered by its evKey, so execution order is a pure function of the seed
// and the program, never of the order in which contexts happened to arm.
const (
	kindGlobal uint8 = iota // network-scoped events; first at equal timestamps
	kindLocal               // node-scoped events scheduled by the node itself
	kindRemote              // cross-node events (radio deliveries)
)

// evKey is the canonical total order of events: timestamp, then event
// class (globals before node events, locals before remote arrivals), then
// an origin/sequence pair that is unique within the class. For local
// events (a, b) is (node, per-node seq); for remote events it is (sender,
// per-sender send seq) — both assigned by a single deterministic writer.
type evKey struct {
	at time.Duration
	ka uint64 // class in the high half, origin node in the low half
	b  uint64
}

func newKey(at time.Duration, kind uint8, a uint32, b uint64) evKey {
	return evKey{at: at, ka: uint64(kind)<<32 | uint64(a), b: b}
}

func (k evKey) less(o evKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.ka != o.ka {
		return k.ka < o.ka
	}
	return k.b < o.b
}

// Event is a caller-owned event record: the owner embeds it in its own
// state, binds its callback once, and arms it every time the callback is to
// run, so a recurring timer or a per-frame event allocates nothing. The
// closure form (After) allocates one Event and arms it; there is no other
// queue. The zero Event is idle; it must not be copied once bound.
//
// Ownership. An Event belongs to one scheduling context at a time: the
// context that arms it through its own Port, until the callback has started
// or the event has been cancelled. A pending record must not be armed
// again — Arm panics — but its callback may re-arm it, because the record
// is idle from the moment the callback starts. Only the context that armed
// the record may Cancel it. ArmRemote hands the record to the target node's
// context: the sender must not touch it again, and the target owns it from
// the moment its callback runs there.
type Event struct {
	key evKey
	fn  func()
	// h is the queue the record is pending in (nil when idle); index is its
	// position there.
	h     *eventHeap
	index int
}

// Bind sets the callback the record runs each time it fires. It panics on
// a pending record.
func (e *Event) Bind(fn func()) {
	if e.h != nil {
		panic("sim: Bind on a pending event")
	}
	e.fn = fn
}

// Cancel implements Timer: it removes a pending record from its queue at
// once and reports whether it was pending.
func (e *Event) Cancel() bool {
	if e.h == nil {
		return false
	}
	e.h.remove(e.index)
	return true
}

// eventHeap is a 4-ary min-heap of pending events in canonical order. Keys
// are stored inline so a sift compares without touching the records, and
// every record knows its index, so Cancel removes it at once: the heap
// holds exactly the pending records (a Fanout is one, whatever it stands for).
type eventHeap struct {
	s []heapEntry
}

type heapEntry struct {
	key evKey
	ev  *Event
}

const heapArity = 4

// push makes the idle record ev pending under key k; it panics if ev is
// already pending.
func (h *eventHeap) push(ev *Event, k evKey) {
	if ev.h != nil {
		panic("sim: event armed while pending")
	}
	ev.h, ev.key = h, k
	h.s = append(h.s, heapEntry{})
	h.up(len(h.s)-1, heapEntry{k, ev})
}

// peek returns the earliest pending event, or nil when none remain.
func (h *eventHeap) peek() *Event {
	if len(h.s) == 0 {
		return nil
	}
	return h.s[0].ev
}

// popNext removes and returns the earliest pending event, or nil.
func (h *eventHeap) popNext() *Event {
	if len(h.s) == 0 {
		return nil
	}
	ev := h.s[0].ev
	h.remove(0)
	return ev
}

// remove deletes the entry at index i and marks its record idle.
func (h *eventHeap) remove(i int) {
	h.s[i].ev.h = nil
	n := len(h.s) - 1
	last := h.s[n]
	h.s[n] = heapEntry{}
	h.s = h.s[:n]
	if i == n {
		return
	}
	if i > 0 && last.key.less(h.s[(i-1)/heapArity].key) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up places x at or above the hole at index i.
func (h *eventHeap) up(i int, x heapEntry) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !x.key.less(h.s[p].key) {
			break
		}
		h.s[i] = h.s[p]
		h.s[i].ev.index = i
		i = p
	}
	h.s[i] = x
	x.ev.index = i
}

// down places x at or below the hole at index i.
func (h *eventHeap) down(i int, x heapEntry) {
	n := len(h.s)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+heapArity && c < n; c++ {
			if h.s[c].key.less(h.s[min].key) {
				min = c
			}
		}
		if !h.s[min].key.less(x.key) {
			break
		}
		h.s[i] = h.s[min]
		h.s[i].ev.index = i
		i = min
	}
	h.s[i] = x
	x.ev.index = i
}
