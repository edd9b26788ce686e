// Package rt is the live runtime: it runs the same single-threaded node
// code the simulator drives — internal/core.Node, its filters, and the
// services built on them — against the wall clock, as real processes on
// real transports. NewStack builds one such node over a UDP endpoint, the
// assembly cmd/diffnode runs, so that the link never delivers before the
// node exists.
//
// The paper's daemon is an event-driven, single-threaded process; the
// simulator preserves that by executing every node callback on one event
// loop. Loop preserves it in real time: one goroutine per node owns all of
// that node's protocol state, and everything that touches the node — timer
// callbacks, link-layer receptions, control-plane requests — is posted onto
// the loop and executed serially in arrival order. Node logic therefore
// needs no locks and runs unmodified under either driver.
//
// Loop implements sim.Clock, so a core.Config{Clock: loop, ...} node keeps
// the exact code paths exercised by the deterministic tests. Timers are
// time.Timer underneath but fire on the loop, and Cancel retains the
// simulator's guarantee: a successful Cancel means the callback will not
// run, even if the underlying timer already expired and its dispatch is
// sitting in the loop's queue.
package rt

import (
	"errors"
	"sync"
	"time"

	"diffusion/internal/sim"
)

// ErrStopped is returned by Call once the loop has been stopped.
var ErrStopped = errors.New("rt: loop is stopped")

// Loop is a serialized wall-clock executor: a single goroutine that owns
// one node's state and runs every callback in submission order. It
// implements sim.Clock.
type Loop struct {
	start time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []job
	stopping bool
	done     chan struct{}

	// deferred is what the callbacks of the current wake-up handed Defer;
	// only the loop goroutine touches it.
	deferred []func()
}

// job is one queued piece of loop work: fn, or else a frame handed to a
// receiver bound once, so that a received frame costs no closure.
type job struct {
	fn      func()
	recv    func(from uint32, payload []byte)
	from    uint32
	payload []byte
}

// NewLoop starts a loop anchored at the current instant. The caller must
// eventually Stop it to release the goroutine.
func NewLoop() *Loop {
	l := &Loop{start: time.Now(), done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

// run is the loop goroutine: it drains posted jobs in order until the
// loop is stopped, then executes whatever was already queued and exits.
// Each wake-up takes the whole queue in one lock acquisition and leaves
// Post the previous batch's array to fill, so the two arrays alternate and
// a steady stream of posts allocates nothing. What the batch deferred runs
// before the loop looks at the queue again.
func (l *Loop) run() {
	defer close(l.done)
	var batch []job
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.stopping {
			l.cond.Wait()
		}
		if len(l.queue) == 0 {
			l.mu.Unlock()
			return
		}
		batch, l.queue = l.queue, batch[:0]
		l.mu.Unlock()
		for i := range batch {
			j := batch[i]
			batch[i] = job{} // a job that has run must not pin what it held
			if j.fn != nil {
				j.fn()
			} else {
				j.recv(j.from, j.payload)
			}
		}
		for i := 0; i < len(l.deferred); i++ { // a deferred call may defer another
			fn := l.deferred[i]
			l.deferred[i] = nil
			fn()
		}
		l.deferred = l.deferred[:0]
	}
}

// Defer runs fn on the loop goroutine once the callbacks of the current
// wake-up — everything that was queued when the loop last looked, the last
// such batch before Stop returns included — have run, in call order and
// before anything posted since. It is the loop's end-of-batch edge: work
// that is cheaper done once per wake-up than once per callback (flushing a
// corked link) hangs off it. Defer may be called only from a loop callback.
func (l *Loop) Defer(fn func()) { l.deferred = append(l.deferred, fn) }

// Post enqueues fn to run on the loop goroutine. It never blocks and is
// safe from any goroutine (link-layer readers, HTTP handlers, timer
// dispatch). After Stop, posts are dropped and Post reports false.
func (l *Loop) Post(fn func()) bool { return l.push(job{fn: fn}) }

// PostFrame enqueues recv(from, payload) as Post enqueues a callback, in
// one order with the posts: a link's delivery hands its frames up this
// way, recv built once instead of a closure per frame.
func (l *Loop) PostFrame(recv func(from uint32, payload []byte), from uint32, payload []byte) bool {
	return l.push(job{recv: recv, from: from, payload: payload})
}

func (l *Loop) push(j job) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stopping {
		return false
	}
	l.queue = append(l.queue, j)
	l.cond.Signal()
	return true
}

// Call runs fn on the loop goroutine and waits for it to finish — the
// synchronous entry point control planes use to query or mutate node
// state. It must not be called from within a loop callback (that would
// deadlock); loop-resident code simply calls fn directly.
func (l *Loop) Call(fn func()) error {
	ch := make(chan struct{})
	if !l.Post(func() {
		fn()
		close(ch)
	}) {
		return ErrStopped
	}
	<-ch
	return nil
}

// Stop shuts the loop down: already-queued callbacks still run, later
// posts are dropped, and Stop returns once the loop goroutine has exited.
// Timers that fire afterwards are silently discarded. Stop is idempotent
// and must not be called from within a loop callback.
func (l *Loop) Stop() {
	l.mu.Lock()
	l.stopping = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
}

// Now returns the elapsed wall time since the loop was created, satisfying
// the sim.Clock contract of time-as-offset-from-start.
func (l *Loop) Now() time.Duration { return time.Since(l.start) }

// Start returns the wall-clock instant the loop was anchored at: Now() is
// the offset from it. Span collectors use it to translate the loop's
// node-local timestamps into absolute time.
func (l *Loop) Start() time.Time { return l.start }

// After schedules fn to run on the loop d from now. The returned timer's
// Cancel reports whether the callback was still pending and guarantees it
// will not run.
func (l *Loop) After(d time.Duration, fn func()) sim.Timer {
	if d < 0 {
		d = 0
	}
	t := &timer{loop: l, fn: fn}
	t.t = time.AfterFunc(d, t.dispatch)
	return t
}

// timer is one pending loop callback backed by a time.Timer. Its state is
// guarded by a mutex because Cancel may race with the wall-clock dispatch
// goroutine, unlike in the simulator where everything shares one thread.
type timer struct {
	loop *Loop
	fn   func()
	t    *time.Timer

	mu        sync.Mutex
	fired     bool
	cancelled bool
}

// dispatch runs on the time.Timer's goroutine and hands the callback to
// the loop. The cancelled check happens again on the loop goroutine, so a
// Cancel that lands after dispatch but before execution still wins.
func (t *timer) dispatch() {
	t.loop.Post(func() {
		t.mu.Lock()
		if t.cancelled {
			t.mu.Unlock()
			return
		}
		t.fired = true
		t.mu.Unlock()
		t.fn()
	})
}

// Cancel stops the timer; it reports whether the callback was still
// pending (and is now guaranteed not to run).
func (t *timer) Cancel() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.fired || t.cancelled {
		return false
	}
	t.cancelled = true
	t.t.Stop()
	return true
}
