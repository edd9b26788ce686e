// Package sim provides the deterministic discrete-event engines that
// substitute for the paper's wall-clock testbed runs. Node logic is written
// against the Clock interface and never blocks; events execute in virtual-
// time order, so a 30-minute experiment completes in milliseconds and every
// run is reproducible from its seed.
//
// Two engines implement the Executor interface:
//
//   - Scheduler: the single-queue event loop mirroring the paper's
//     single-threaded daemon. Simple, and the reference for unit tests.
//   - Kernel (kernel.go): a sharded conservative parallel engine that
//     executes the same canonical event order across any shard count, so
//     parallel runs are bit-for-bit identical to sequential ones.
//
// A RealClock implementation of the same Clock interface lets identical
// node code run live on goroutine timers: internal/transport's link
// engines run on it in a live endpoint and on a Scheduler under test.
package sim

import (
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

// Env is the scheduling surface one node's protocol stack runs against: a
// clock, a deterministic random stream, and the transmission-commit timer.
type Env interface {
	Clock
	// AfterTx schedules a transmission-commit event: the only kind of
	// event allowed to put a frame on the air (and hence to schedule
	// cross-node work). Engines may clamp d up to the configured radio
	// turnaround time; the MAC models that turnaround explicitly, so the
	// clamp is never hit in practice.
	AfterTx(d time.Duration, fn func()) Timer
	// Arm schedules the caller-owned record e to fire d from now in this
	// context; After is Arm on a freshly allocated record. e must be bound
	// and must not be pending (Arm panics if it is); see Event for who owns
	// a record when.
	Arm(e *Event, d time.Duration)
	// ArmTx is Arm for a transmission-commit event (see AfterTx).
	ArmTx(e *Event, d time.Duration)
	// Rand returns the stream all of this context's randomness must come
	// from, so runs are reproducible.
	Rand() *rand.Rand
}

// Port is one node's scheduling handle. Everything a node schedules goes
// through its own Port; cross-node effects go through ArmRemote, which is
// how the Kernel keeps shards from touching each other's queues.
type Port interface {
	Env
	// ArmRemote schedules the record e to fire in node to's context, d from
	// now. It may only be called from within a transmission-commit (ArmTx,
	// AfterTx) event, and d must be at least the engine's configured
	// propagation delay — together these give the conservative engine its
	// lookahead. e must be bound and idle, as for Arm. Arming hands e over:
	// the caller must not touch it again (not even to Cancel it), and from
	// the moment its callback runs it belongs to node to's context, which
	// may re-arm it on its own Port.
	ArmRemote(to uint32, e *Event, d time.Duration)
	// Shard returns the index of the event shard that executes this node
	// (always 0 on the Scheduler). State indexed by it — a free list, say —
	// is touched by one worker at a time without locks.
	Shard() int
}

// Executor is a deterministic discrete-event engine: the global (network-
// scoped) scheduling context plus per-node ports. Scheduler and Kernel
// implement it.
type Executor interface {
	Clock
	// Rand returns the global random stream (fault injection, experiment
	// drivers). Node-scoped code must use its Port's stream instead.
	Rand() *rand.Rand
	// Every schedules fn at now+d and then every period thereafter until
	// the returned Timer is cancelled. It panics when period is not
	// positive (a zero period would re-arm at the same timestamp forever,
	// livelocking the event loop).
	Every(d, period time.Duration, fn func()) Timer
	// Port returns node id's scheduling handle.
	Port(id uint32) Port
	// DeriveRand returns an independent deterministic stream derived from
	// the engine's seed and a tag path (see DeriveSeed).
	DeriveRand(tags ...uint64) *rand.Rand
	// RunUntil executes events with timestamps <= t, then advances the
	// clock to t.
	RunUntil(t time.Duration)
	// Run executes events until none remain (or Stop is called).
	Run()
	// Stop halts the event loop.
	Stop()
	// NextEventAt returns the timestamp of the next live event, or
	// ok=false when no events are queued.
	NextEventAt() (time.Duration, bool)
	// Pending returns the number of live queued events (diagnostics).
	Pending() int
}

// Scheduler is the single-queue deterministic executor implementing Clock.
// It is not safe for concurrent use; all node logic runs inside its event
// loop, exactly like the paper's single-threaded event-driven daemon.
type Scheduler struct {
	seed    int64
	now     time.Duration
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
}

// New returns a Scheduler whose randomness derives entirely from seed.
func New(seed int64) *Scheduler {
	return &Scheduler{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's seeded random source. All simulation
// randomness (jitter, loss draws, backoff) must come from here so runs are
// reproducible.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// DeriveRand returns an independent stream derived from the scheduler's
// seed and a tag path.
func (s *Scheduler) DeriveRand(tags ...uint64) *rand.Rand {
	return newDerivedRand(s.seed, tags...)
}

// After schedules fn at now+d. Negative d is treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	e := &Event{fn: fn}
	s.Arm(e, d)
	return e
}

// AfterTx schedules a transmission-commit event. On the single-queue
// Scheduler it is equivalent to After; the Kernel uses the tx tag to bound
// its conservative windows.
func (s *Scheduler) AfterTx(d time.Duration, fn func()) Timer {
	return s.After(d, fn)
}

// Arm schedules the caller-owned record e at now+d (negative d is treated
// as zero). It panics if e is pending.
func (s *Scheduler) Arm(e *Event, d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.seq++
	e.claim(&s.events, newKey(s.now+d, kindGlobal, 0, s.seq), false)
	s.events.push(e)
}

// ArmTx is Arm: the single queue needs no transmission-commit tag.
func (s *Scheduler) ArmTx(e *Event, d time.Duration) { s.Arm(e, d) }

// Port returns a scheduling handle for node id. On the single-queue
// Scheduler every port shares the one queue, clock and random stream, so
// unit tests drive MACs and radios exactly as before sharding existed.
func (s *Scheduler) Port(id uint32) Port { return schedPort{s} }

// schedPort adapts the Scheduler to the Port interface: the one queue is
// every node's context, so a remote record is an ordinary one.
type schedPort struct{ *Scheduler }

func (p schedPort) Shard() int                                     { return 0 }
func (p schedPort) ArmRemote(to uint32, e *Event, d time.Duration) { p.Arm(e, d) }

// Every schedules fn at now+d and then every period thereafter until the
// returned Timer is cancelled. The first firing is at now+d. It panics when
// period is not positive: re-arming at the same timestamp would livelock
// the event loop.
func (s *Scheduler) Every(d, period time.Duration, fn func()) Timer {
	return Every(s, d, period, fn)
}

// Every schedules fn on any Clock at now+d and then every period
// thereafter, until the returned Timer is cancelled. It panics when period
// is not positive.
func Every(c Clock, d, period time.Duration, fn func()) Timer {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	r := &repeatTimer{c: c, period: period, fn: fn}
	r.tick = r.fire
	r.inner = c.After(d, r.tick)
	return r
}

type repeatTimer struct {
	c         Clock
	period    time.Duration
	fn, tick  func()
	inner     Timer
	cancelled bool
}

func (r *repeatTimer) fire() {
	if r.cancelled {
		return
	}
	r.fn()
	if !r.cancelled {
		r.inner = r.c.After(r.period, r.tick)
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
// remain or the scheduler is stopped.
func (s *Scheduler) Step() bool {
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
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Pending later events remain queued.
func (s *Scheduler) RunUntil(t time.Duration) {
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
func (s *Scheduler) Stop() { s.stopped = true }

// NextEventAt returns the timestamp of the next live event, or ok=false
// when the queue is empty. Real-time pacing drivers use it to sleep until
// the wall clock catches up with virtual time.
func (s *Scheduler) NextEventAt() (time.Duration, bool) {
	ev := s.events.peek()
	if ev == nil {
		return 0, false
	}
	return ev.key.at, true
}

// Pending returns the number of queued events (diagnostics). It is O(1):
// the heap holds exactly the pending events.
func (s *Scheduler) Pending() int { return len(s.events.s) }

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
