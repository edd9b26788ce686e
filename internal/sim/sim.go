// Package sim provides the deterministic discrete-event engine that
// substitutes for the paper's wall-clock testbed runs. Node logic is written
// against the Clock interface and never blocks; events execute in virtual-
// time order, so a 30-minute experiment completes in milliseconds and every
// run is reproducible from its seed.
//
// There is one Engine: one heap of pending events in canonical order
// (heap.go), popped by one loop on the caller's goroutine — the paper's
// single-threaded event-driven daemon (section 4.1). Each node schedules
// through its own Port, with its own sequence counters and its own derived
// random stream (derive.go); the Engine itself is the global context of
// experiment drivers and fault injection.
//
// A RealClock implementation of the same Clock interface lets identical
// node code run live on goroutine timers: internal/transport's link
// engines run on it in a live endpoint and on an Engine under test.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Clock is the time service node logic is written against.
type Clock interface {
	// Now returns the current time as an offset from the experiment start.
	Now() time.Duration
	// After schedules fn to run once, d from now. It returns a Timer that
	// can cancel the callback before it fires.
	After(d time.Duration, fn func()) Timer
}

// Timer is a cancellable pending callback.
type Timer interface {
	// Cancel stops the timer; it reports whether the callback was still
	// pending (and is now guaranteed not to run).
	Cancel() bool
}

// Env is the scheduling surface one context's code runs against: a clock,
// caller-owned event records and a deterministic random stream.
type Env interface {
	Clock
	// Arm schedules the caller-owned record e to fire d from now in this
	// context (negative d is treated as zero); After is Arm on a freshly
	// allocated record. e must be bound and must not be pending (Arm panics
	// if it is); see Event for who owns a record when.
	Arm(e *Event, d time.Duration)
	// Rand returns the stream all of this context's randomness must come
	// from, so runs are reproducible.
	Rand() *rand.Rand
}

// Port is one node's scheduling handle. Everything a node schedules goes
// through its own Port; cross-node effects go through ArmRemote.
type Port interface {
	Env
	// ArmRemote schedules the record e to fire in node to's context, d from
	// now; to must have a Port. e must be bound and idle, as for Arm. Arming
	// hands e over: the caller must not touch it again (not even to Cancel
	// it), and from the moment its callback runs it belongs to node to's
	// context, which may re-arm it on its own Port.
	ArmRemote(to uint32, e *Event, d time.Duration)
	// Join draws the key an Arm(e, d) here would give e and appends it to
	// the fan-out f instead: this node's share of an event many nodes have
	// at once (see Fanout). Nodes must join in ascending ID order.
	Join(f *Fanout, d time.Duration)
}

// Engine is the deterministic discrete-event executor, and itself the
// global (network-scoped) scheduling context: at equal timestamps its events
// run before any node's. It is not safe for concurrent use; all node logic
// runs inside its event loop, exactly like the paper's single-threaded
// event-driven daemon.
type Engine struct {
	seed    int64
	now     time.Duration
	events  eventHeap
	seq     uint64 // global-context event sequence
	rng     *rand.Rand
	nodes   map[uint32]*nodePort
	stopped bool
}

// New returns an Engine whose randomness derives entirely from seed.
func New(seed int64) *Engine {
	return &Engine{seed: seed, rng: rand.New(rand.NewSource(seed)), nodes: map[uint32]*nodePort{}}
}

// Now returns the current virtual time: the executing event's timestamp.
func (s *Engine) Now() time.Duration { return s.now }

// Rand returns the global context's random stream, seeded directly with
// the engine's seed. Node-scoped code must use its Port's stream instead.
func (s *Engine) Rand() *rand.Rand { return s.rng }

// DeriveRand returns an independent deterministic stream derived from the
// engine's seed and a tag path (see DeriveSeed).
func (s *Engine) DeriveRand(tags ...uint64) *rand.Rand {
	st := s.Stream(tags...)
	return rand.New(&st)
}

// Stream returns the derived stream (seed, tags...) by value: DeriveRand's
// draws, for a caller that keeps its streams in a slab.
func (s *Engine) Stream(tags ...uint64) Stream { return Stream{uint64(DeriveSeed(s.seed, tags...))} }

// After schedules fn in global context at now+d.
func (s *Engine) After(d time.Duration, fn func()) Timer {
	e := &Event{fn: fn}
	s.Arm(e, d)
	return e
}

// Arm schedules the caller-owned record e in global context at now+d.
func (s *Engine) Arm(e *Event, d time.Duration) {
	s.seq++
	s.events.push(e, newKey(s.at(d), kindGlobal, 0, s.seq))
}

// Every schedules fn in global context at now+d and then every period
// thereafter until the returned Timer is cancelled. It panics when period
// is not positive: re-arming at the same timestamp would livelock the
// event loop.
func (s *Engine) Every(d, period time.Duration, fn func()) Timer {
	return Every(s, d, period, fn)
}

// at returns the timestamp d from now, treating negative d as zero.
func (s *Engine) at(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	return s.now + d
}

// Port returns node id's scheduling handle, creating it on first use. The
// node's random stream is derived from the seed and the id alone.
func (s *Engine) Port(id uint32) Port {
	p, ok := s.nodes[id]
	if !ok {
		p = &nodePort{eng: s, id: id, src: s.Stream(NodeStream(id)...)}
		p.rng = *rand.New(&p.src)
		s.nodes[id] = p
	}
	return p
}

// nodePort is one node's scheduling context: the single writer of the
// sequence numbers in its events' keys.
type nodePort struct {
	eng  *Engine
	id   uint32
	seq  uint64 // local event sequence
	rseq uint64 // remote send sequence
	src  Stream
	rng  rand.Rand // draws from src
}

func (p *nodePort) Now() time.Duration { return p.eng.now }
func (p *nodePort) Rand() *rand.Rand   { return &p.rng }

// After schedules fn in this node's context at now+d.
func (p *nodePort) After(d time.Duration, fn func()) Timer {
	e := &Event{fn: fn}
	p.Arm(e, d)
	return e
}

// Arm schedules the caller-owned record e in this node's context at now+d.
func (p *nodePort) Arm(e *Event, d time.Duration) {
	p.seq++
	p.eng.events.push(e, newKey(p.eng.at(d), kindLocal, p.id, p.seq))
}

// ArmRemote schedules e in node to's context at now+d. It panics if to has
// no Port or e is pending; once armed, e belongs to the target's context.
func (p *nodePort) ArmRemote(to uint32, e *Event, d time.Duration) {
	if _, ok := p.eng.nodes[to]; !ok {
		panic(fmt.Sprintf("sim: ArmRemote to unregistered node %d", to))
	}
	p.rseq++
	p.eng.events.push(e, newKey(p.eng.at(d), kindRemote, p.id, p.rseq))
}

// Every schedules fn on any Clock at now+d and then every period
// thereafter, until the returned Timer is cancelled. It panics when period
// is not positive. It re-arms one record of its own through ArmOn, so on an
// Env a period costs no allocation.
func Every(c Clock, d, period time.Duration, fn func()) Timer {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	r := &repeatTimer{c: c, period: period, fn: fn}
	r.ev.Bind(r.fire)
	r.inner = ArmOn(c, &r.ev, d)
	return r
}

// ArmOn schedules the bound, idle record e to fire d from now on any Clock
// and returns the Timer that cancels it. On an Env (an Engine or a Port) it
// is Env.Arm, which draws the key After would have drawn and allocates
// nothing; on any other Clock it is After with e's callback, and e itself
// is never pending.
func ArmOn(c Clock, e *Event, d time.Duration) Timer {
	if env, ok := c.(Env); ok {
		env.Arm(e, d)
		return e
	}
	return c.After(d, e.fn)
}

type repeatTimer struct {
	c         Clock
	ev        Event // the record re-armed each period
	period    time.Duration
	fn        func()
	inner     Timer
	cancelled bool
}

func (r *repeatTimer) fire() {
	if r.cancelled {
		return
	}
	r.fn()
	if !r.cancelled {
		r.inner = ArmOn(r.c, &r.ev, r.period)
	}
}

func (r *repeatTimer) Cancel() bool {
	if r.cancelled {
		return false
	}
	r.cancelled = true
	return r.inner.Cancel()
}

// Step executes the next pending event. It reports false when no events
// remain or the engine is stopped.
func (s *Engine) Step() bool {
	if s.stopped {
		return false
	}
	ev := s.events.popNext()
	if ev == nil {
		return false
	}
	if ev.key.at > s.now {
		s.now = ev.key.at
	}
	ev.fn()
	return true
}

// Run executes events until none remain (or Stop is called). Use RunUntil
// for open-ended workloads with repeating timers.
func (s *Engine) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Pending later events remain queued.
func (s *Engine) RunUntil(t time.Duration) {
	for !s.stopped {
		ev := s.events.peek()
		if ev == nil || ev.key.at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Stop halts the event loop; subsequent Step calls return false.
func (s *Engine) Stop() { s.stopped = true }

// NextEventAt returns the timestamp of the next live event, or ok=false
// when the queue is empty. Real-time pacing drivers use it to sleep until
// the wall clock catches up with virtual time.
func (s *Engine) NextEventAt() (time.Duration, bool) {
	ev := s.events.peek()
	if ev == nil {
		return 0, false
	}
	return ev.key.at, true
}

// Pending returns the number of heap entries (diagnostics, O(1)): one per
// pending Event — Cancel removes its entry at once — and one per pending
// Fanout, however many of its sub-events are still to run.
func (s *Engine) Pending() int { return len(s.events.s) }

// RealClock implements Clock over the wall clock, so the same node logic
// can run live. It is safe for concurrent use; callbacks run on the Go
// runtime's timer goroutines.
type RealClock struct{ start time.Time }

// NewRealClock returns a RealClock anchored at the current instant.
func NewRealClock() *RealClock { return &RealClock{start: time.Now()} }

// Now returns the elapsed wall time since the clock was created.
func (c *RealClock) Now() time.Duration { return time.Since(c.start) }

// After schedules fn on a goroutine timer.
func (c *RealClock) After(d time.Duration, fn func()) Timer {
	return &realTimer{t: time.AfterFunc(d, fn)}
}

type realTimer struct{ t *time.Timer }

func (r *realTimer) Cancel() bool { return r.t.Stop() }
