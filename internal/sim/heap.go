package sim

import "time"

// Event-class tags of the canonical order. Every event in a run — whether
// executed by the sequential Scheduler or by any shard layout of the
// Kernel — is totally ordered by its evKey, so execution order is a pure
// function of the seed and the program, never of the shard count.
const (
	kindGlobal uint8 = iota // network-scoped events; run at barriers
	kindLocal               // node-scoped events scheduled by the node itself
	kindRemote              // cross-node events (radio deliveries)
)

// evKey is the canonical total order of events: timestamp, then event
// class (globals before node events, locals before remote arrivals), then
// an origin/sequence pair that is unique within the class. For local
// events (a, b) is (node, per-node seq); for remote events it is (sender,
// per-sender send seq) — both assigned by a single deterministic writer,
// which is what makes the order shard-count independent.
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
// closure forms (After, AfterTx) allocate one Event and arm it; there is no
// other queue. The zero Event is idle; it must not be copied once bound.
//
// Ownership. An Event belongs to one scheduling context at a time: the
// context that arms it through its own Port, until the callback has started
// or the event has been cancelled. A pending record must not be armed
// again — Arm panics — but its callback may re-arm it, because the record
// is idle from the moment the callback starts. Only the context whose queue
// holds the record may Cancel it. ArmRemote hands the record to the target
// node's context: the sender must not touch it again, and the target owns
// it from the moment its callback runs there.
type Event struct {
	key evKey
	fn  func()
	// h is the queue the record is pending in (nil when idle); index is its
	// position there, or inFlight between ArmRemote and the window barrier
	// that merges it into h.
	h     *eventHeap
	index int
	// tx marks transmission-commit events (ArmTx): the only events allowed
	// to schedule cross-node work, and the events whose timestamps bound
	// the Kernel's conservative windows.
	tx bool
}

const inFlight = -1

// Bind sets the callback the record runs each time it fires. It panics on
// a pending record.
func (e *Event) Bind(fn func()) {
	if e.h != nil {
		panic("sim: Bind on a pending event")
	}
	e.fn = fn
}

// Cancel implements Timer: it removes a pending record from its queue at
// once and reports whether it was pending. It must be called from the
// context whose queue holds the record; a record in flight to another node
// (ArmRemote, before the barrier) belongs to nobody and cannot be cancelled.
func (e *Event) Cancel() bool {
	if e.h == nil {
		return false
	}
	if e.index == inFlight {
		panic("sim: Cancel of an event in flight to another node")
	}
	e.h.remove(e.index)
	return true
}

// claim marks the idle record e as pending for h with key k; the caller
// then pushes it onto h or onto an outbox bound for h.
func (e *Event) claim(h *eventHeap, k evKey, tx bool) {
	if e.h != nil {
		panic("sim: event armed while pending")
	}
	e.h, e.index, e.key, e.tx = h, inFlight, k, tx
}

// eventHeap is a 4-ary min-heap of pending events in canonical order. Keys
// are stored inline so a sift compares without touching the records, and
// every record knows its index, so Cancel removes it at once: the heap
// holds exactly the pending events.
type eventHeap struct {
	s []heapEntry
}

type heapEntry struct {
	key evKey
	ev  *Event
}

const heapArity = 4

// push inserts a record already claimed for h.
func (h *eventHeap) push(ev *Event) {
	h.s = append(h.s, heapEntry{})
	h.up(len(h.s)-1, heapEntry{ev.key, ev})
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

// txTimes holds the pending transmission-commit timestamps in ascending
// order; the Kernel reads the first to bound each conservative window. A
// shard's commits are armed in time order a fixed turnaround ahead, so a
// push lands at the end and a prune takes from the front. Entries for
// cancelled events are never removed early — that only narrows windows,
// which is safe.
type txTimes []time.Duration

func (q *txTimes) push(t time.Duration) {
	s := append(*q, t)
	i := len(s) - 1
	for ; i > 0 && s[i-1] > t; i-- {
		s[i] = s[i-1]
	}
	s[i] = t
	*q = s
}

// pruneBelow discards entries earlier than t (transmissions that have
// already fired).
func (q *txTimes) pruneBelow(t time.Duration) {
	s, i := *q, 0
	for i < len(s) && s[i] < t {
		i++
	}
	if i > 0 {
		*q = s[:copy(s, s[i:])]
	}
}

// min returns the earliest pending transmission time.
func (q txTimes) min() (time.Duration, bool) {
	if len(q) == 0 {
		return 0, false
	}
	return q[0], true
}
