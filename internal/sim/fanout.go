package sim

import "time"

// Fanout is one heap entry that stands for a run of node-local events: one
// radio frame ending at every receiver. Each node draws its key with
// Port.Join — the key an Event armed at that call would have got — in
// ascending canonical order, and ArmFanout makes the run pending under the
// first key. Popped, it runs its callback for that key and carries on with
// the next key only while that key is due now and still below the heap's
// top; otherwise it re-pushes itself under it. Every sub-event therefore
// runs exactly where its own Event would have: a timestamp tie with another
// node's event, a zero-delay event armed by a sub-event and a RunUntil
// boundary all land as they would between separate events.
//
// Ownership is the Event rule: the owner binds once, and the record is idle
// and empty again from the moment its last sub-event starts, which may
// refill and re-arm it. A fan-out cannot be cancelled.
type Fanout struct {
	ev   Event
	eng  *Engine
	fn   func(i int)
	keys []evKey
	next int
	live bool // armed and its last sub-event has not started
}

// Bind sets the callback run for each key, with the key's index in Join
// order. It panics on a pending fan-out.
func (f *Fanout) Bind(fn func(i int)) {
	f.ev.Bind(f.run)
	f.fn = fn
}

// ArmFanout makes f pending under the first of its joined keys. It panics
// if f is pending or nobody joined.
func (s *Engine) ArmFanout(f *Fanout) {
	if f.live {
		panic("sim: fan-out armed while pending")
	}
	s.events.push(&f.ev, f.keys[0])
	f.eng, f.live = s, true
}

// run is the heap entry's callback: the sub-event the entry was pushed
// under, then as many of the following ones as are next in canonical order.
func (f *Fanout) run() {
	s := f.eng
	for {
		i := f.next
		f.next++
		if f.next == len(f.keys) {
			f.keys, f.next, f.live = f.keys[:0], 0, false
			f.fn(i)
			return
		}
		f.fn(i)
		k := f.keys[f.next]
		if k.at > s.now || (len(s.events.s) > 0 && s.events.s[0].key.less(k)) {
			s.events.push(&f.ev, k)
			return
		}
	}
}

// Join draws this node's next local key at now+d and appends it to the idle
// fan-out f; a key that does not ascend panics.
func (p *nodePort) Join(f *Fanout, d time.Duration) {
	p.seq++
	k := newKey(p.eng.at(d), kindLocal, p.id, p.seq)
	if f.live {
		panic("sim: Join on a pending fan-out")
	}
	if n := len(f.keys); n > 0 && !f.keys[n-1].less(k) {
		panic("sim: fan-out keys must ascend (join nodes in ID order)")
	}
	f.keys = append(f.keys, k)
}
