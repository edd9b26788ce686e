package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Kernel is a sharded, parallel-capable discrete-event executor that
// produces bit-for-bit identical runs at any shard count.
//
// # Execution model
//
// Nodes are assigned to shards; each shard owns its nodes' event queue and
// executes it single-threaded, so node state needs no locks. Time advances
// in conservative windows: a window starting at the earliest pending node
// event tn extends to
//
//	w1 = min( earliest pending transmission + propagation,
//	          tn + turnaround + propagation,
//	          earliest global event,
//	          RunUntil horizon )
//
// Cross-node effects exist only through Port.ArmRemote, which (a) is only
// legal inside a transmission-commit event (ArmTx, AfterTx), and (b) requires
// a delay of at least the propagation time. Any transmission pending at the
// window start delivers at or after w1 by the first bound; any transmission
// committed during the window happens at least a turnaround after its
// scheduling event, so its deliveries land at or after tn+turnaround+
// propagation >= w1 by the second. Hence no event executed inside [tn, w1)
// can affect another shard within the window, and all shards may run it
// concurrently.
//
// Cross-node deliveries are buffered in per-shard outboxes and merged into
// the owning shards' queues at the window barrier. Merge timing cannot
// reorder execution because every event carries a canonical key — see
// evKey: (timestamp, class, origin, origin-sequence) — assigned by its
// single-writer origin, so the total execution order is independent of the
// shard layout. Per-node and per-link random streams are derived from the
// master seed (DeriveSeed) rather than drawn from a shared stream, so
// execution order cannot perturb random draws either.
//
// Global events — Kernel.After/Every, fault injection, experiment drivers —
// run between windows with exclusive access to every shard, so they may
// freely touch any node. Code running in node context must schedule through
// its own node's Port; scheduling on the Kernel from inside a parallel
// window panics. Ordering across contexts: at equal timestamps, global
// events run before node events, and a global event scheduled from node
// context runs at the next window barrier.
type Kernel struct {
	seed int64
	prop time.Duration
	turn time.Duration

	now     time.Duration
	stopped bool
	rng     *rand.Rand

	gq   eventHeap
	gseq uint64

	shards []*kshard
	nodes  map[uint32]*nodePort

	// parallelWindow is true while a multi-shard window is executing; it
	// is written by the coordinator strictly before spawning and after
	// joining the workers, so worker reads are race-free.
	parallelWindow bool
	// serial makes multi-shard windows run their busy shards inline, in
	// shard order, instead of spawning workers. Within a window the shards
	// are independent by construction, so any execution order — including
	// fully serial — produces the same merged schedule. Set when the host
	// has a single CPU, where goroutines can only add overhead while the
	// sharded queues still pay off (N small heaps beat one big one).
	serial      bool
	busyScratch []*kshard
}

// KernelConfig configures a Kernel.
type KernelConfig struct {
	// Seed drives every stream of randomness, via DeriveSeed.
	Seed int64
	// Shards is the number of event shards (clamped to >= 1). One shard
	// executes windows inline with zero goroutine traffic — the sequential
	// mode — and is the default.
	Shards int
	// Propagation is the minimum ArmRemote delay: the radio
	// propagation time. It must be positive; it is the irreducible part of
	// the conservative lookahead.
	Propagation time.Duration
	// TxTurnaround is the minimum AfterTx delay (smaller delays are
	// clamped up): the radio's receive-to-transmit turnaround. Larger
	// values widen windows and cut barrier overhead.
	TxTurnaround time.Duration
}

// NewKernel builds a kernel. Register nodes with AddNode before running.
func NewKernel(cfg KernelConfig) *Kernel {
	if cfg.Propagation <= 0 {
		panic("sim: KernelConfig.Propagation must be positive")
	}
	if cfg.TxTurnaround < 0 {
		cfg.TxTurnaround = 0
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	k := &Kernel{
		seed:   cfg.Seed,
		prop:   cfg.Propagation,
		turn:   cfg.TxTurnaround,
		rng:    newDerivedRand(cfg.Seed),
		nodes:  map[uint32]*nodePort{},
		serial: runtime.GOMAXPROCS(0) == 1,
	}
	k.shards = make([]*kshard, n)
	for i := range k.shards {
		k.shards[i] = &kshard{idx: i, out: make([][]*Event, n)}
	}
	return k
}

// Shards returns the configured shard count.
func (k *Kernel) Shards() int { return len(k.shards) }

// AddNode registers node id on the given shard and returns its Port. The
// node's random stream is derived from the master seed and the id alone,
// so the shard layout never changes its draws.
func (k *Kernel) AddNode(id uint32, shard int) Port {
	if shard < 0 || shard >= len(k.shards) {
		panic(fmt.Sprintf("sim: shard %d out of range [0,%d)", shard, len(k.shards)))
	}
	if _, dup := k.nodes[id]; dup {
		panic(fmt.Sprintf("sim: node %d already registered", id))
	}
	p := &nodePort{
		k:   k,
		sh:  k.shards[shard],
		id:  id,
		rng: newDerivedRand(k.seed, NodeStream(id)...),
	}
	k.nodes[id] = p
	return p
}

// Port returns node id's scheduling handle; the node must have been
// registered with AddNode.
func (k *Kernel) Port(id uint32) Port {
	p, ok := k.nodes[id]
	if !ok {
		panic(fmt.Sprintf("sim: node %d not registered", id))
	}
	return p
}

// Now returns the current virtual time of the global context: the start of
// the executing window, or the exact event time between windows. Node
// logic should read its own Port's clock, which is always exact.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the global random stream (fault injection, experiment
// drivers). Node-scoped code must use its Port's stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// DeriveRand returns an independent stream derived from the kernel's seed
// and a tag path.
func (k *Kernel) DeriveRand(tags ...uint64) *rand.Rand {
	return newDerivedRand(k.seed, tags...)
}

// After schedules a global event at now+d. Global events run between
// windows with exclusive access to all shards. Calling After from node
// context during a parallel window panics — node code must use its own
// Port's clock.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	if k.parallelWindow {
		panic("sim: Kernel.After called from node context during a parallel window; schedule on the node's own clock instead")
	}
	if d < 0 {
		d = 0
	}
	k.gseq++
	ev := &Event{fn: fn}
	ev.claim(&k.gq, newKey(k.now+d, kindGlobal, 0, k.gseq), false)
	k.gq.push(ev)
	return ev
}

// Every schedules fn at now+d and then every period thereafter until the
// returned Timer is cancelled. Panics when period is not positive.
func (k *Kernel) Every(d, period time.Duration, fn func()) Timer {
	return Every(k, d, period, fn)
}

// Stop halts the event loop at the next window barrier.
func (k *Kernel) Stop() { k.stopped = true }

// minNodeEvent returns the earliest pending node event time across all
// shards.
func (k *Kernel) minNodeEvent() (time.Duration, bool) {
	var min time.Duration
	ok := false
	for _, sh := range k.shards {
		if ev := sh.q.peek(); ev != nil && (!ok || ev.key.at < min) {
			min, ok = ev.key.at, true
		}
	}
	return min, ok
}

// NextEventAt returns the timestamp of the next live event, or ok=false.
func (k *Kernel) NextEventAt() (time.Duration, bool) {
	tn, okn := k.minNodeEvent()
	if gev := k.gq.peek(); gev != nil && (!okn || gev.key.at < tn) {
		return gev.key.at, true
	}
	return tn, okn
}

// Pending returns the number of queued events (O(shards)).
func (k *Kernel) Pending() int {
	n := len(k.gq.s)
	for _, sh := range k.shards {
		n += len(sh.q.s)
	}
	return n
}

// RunUntil executes events with timestamps <= t, then advances the clock
// to t.
func (k *Kernel) RunUntil(t time.Duration) {
	for !k.stopped {
		gev := k.gq.peek()
		tn, okn := k.minNodeEvent()
		if gev == nil && !okn {
			break
		}
		// Globals run first at equal timestamps, matching their kind-0
		// canonical keys.
		if gev != nil && (!okn || gev.key.at <= tn) {
			if gev.key.at > t {
				break
			}
			k.gq.popNext()
			k.now = gev.key.at
			gev.fn()
			continue
		}
		if tn > t {
			break
		}
		k.runWindow(tn, t)
	}
	if k.now < t {
		k.now = t
	}
}

// Run executes events until none remain (or Stop is called).
func (k *Kernel) Run() {
	for !k.stopped {
		at, ok := k.NextEventAt()
		if !ok {
			break
		}
		k.RunUntil(at)
	}
}

// runWindow executes one conservative window starting at tn, bounded by
// the RunUntil horizon. Every input to the window bound is a global
// property of the pending event set, so the window sequence — and with it
// every global-context clock reading — is identical at every shard count.
func (k *Kernel) runWindow(tn, horizon time.Duration) {
	k.now = tn
	w1 := tn + k.turn + k.prop
	for _, sh := range k.shards {
		sh.txq.pruneBelow(tn)
		if mt, ok := sh.txq.min(); ok && mt+k.prop < w1 {
			w1 = mt + k.prop
		}
	}
	if gev := k.gq.peek(); gev != nil && gev.key.at < w1 {
		w1 = gev.key.at
	}
	if horizon+1 < w1 {
		w1 = horizon + 1 // run events at <= horizon
	}

	busy := k.busyScratch[:0]
	for _, sh := range k.shards {
		if ev := sh.q.peek(); ev != nil && ev.key.at < w1 {
			busy = append(busy, sh)
		}
	}
	if len(busy) > 1 {
		k.parallelWindow = true
		if k.serial {
			// Single-CPU host: the shards are mutually independent inside
			// the window, so running them inline in shard order yields the
			// same merged schedule without goroutine traffic.
			for _, sh := range busy {
				sh.run(w1)
			}
		} else {
			// Parallel dispatch: the coordinator takes the first busy
			// shard, workers take the rest. The WaitGroup join gives the
			// barrier its happens-before edge.
			var wg sync.WaitGroup
			for _, sh := range busy[1:] {
				wg.Add(1)
				go func(sh *kshard, w1 time.Duration) { // w1 by value, or every window allocates it
					defer wg.Done()
					sh.run(w1)
				}(sh, w1)
			}
			busy[0].run(w1)
			wg.Wait()
		}
		k.parallelWindow = false
	} else {
		for _, sh := range busy {
			sh.run(w1)
		}
	}
	k.busyScratch = busy[:0]

	// Barrier: merge cross-shard deliveries into their owners' queues.
	// Order of insertion is irrelevant — the canonical keys order them.
	for _, src := range k.shards {
		for tgt, evs := range src.out {
			if len(evs) == 0 {
				continue
			}
			dst := &k.shards[tgt].q
			for i, ev := range evs {
				dst.push(ev)
				evs[i] = nil
			}
			src.out[tgt] = evs[:0]
		}
	}
}

// kshard is one shard: a queue of its nodes' events, the pending-
// transmission lookahead times, and per-target outboxes. Only the owning
// worker touches it during a window; only the coordinator touches it at
// barriers.
type kshard struct {
	idx int
	now time.Duration
	q   eventHeap
	txq txTimes
	out [][]*Event
	// inTx is true while executing a transmission-commit event — the only
	// context allowed to ArmRemote.
	inTx bool
}

// run executes this shard's events with timestamps < w1.
func (sh *kshard) run(w1 time.Duration) {
	for {
		ev := sh.q.peek()
		if ev == nil || ev.key.at >= w1 {
			return
		}
		sh.q.popNext()
		sh.now = ev.key.at
		if ev.tx {
			sh.inTx = true
			ev.fn()
			sh.inTx = false
		} else {
			ev.fn()
		}
	}
}

// nodePort is one node's scheduling handle on the Kernel.
type nodePort struct {
	k    *Kernel
	sh   *kshard
	id   uint32
	seq  uint64 // local event sequence (single writer: this node/barrier)
	rseq uint64 // remote send sequence (single writer: this node)
	rng  *rand.Rand
}

// Now returns the exact current time in this node's context: the executing
// event's timestamp during a window, the global time at a barrier.
func (p *nodePort) Now() time.Duration {
	if p.sh.now > p.k.now {
		return p.sh.now
	}
	return p.k.now
}

// Rand returns the node's derived random stream.
func (p *nodePort) Rand() *rand.Rand { return p.rng }

// Shard returns the index of the shard that executes this node.
func (p *nodePort) Shard() int { return p.sh.idx }

// After schedules fn in this node's context at now+d.
func (p *nodePort) After(d time.Duration, fn func()) Timer {
	e := &Event{fn: fn}
	p.Arm(e, d)
	return e
}

// AfterTx schedules a transmission-commit event; see ArmTx.
func (p *nodePort) AfterTx(d time.Duration, fn func()) Timer {
	e := &Event{fn: fn}
	p.ArmTx(e, d)
	return e
}

// Arm schedules the caller-owned record e in this node's context at now+d
// (negative d is treated as zero). It panics if e is pending.
func (p *nodePort) Arm(e *Event, d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.push(e, p.Now()+d, false)
}

// ArmTx arms e as a transmission-commit event; d is clamped up to the
// kernel's turnaround time so committed transmissions can never outrun the
// conservative window bound.
func (p *nodePort) ArmTx(e *Event, d time.Duration) {
	if d < p.k.turn {
		d = p.k.turn
	}
	at := p.Now() + d
	p.push(e, at, true)
	p.sh.txq.push(at)
}

func (p *nodePort) push(e *Event, at time.Duration, tx bool) {
	p.seq++
	e.claim(&p.sh.q, newKey(at, kindLocal, p.id, p.seq), tx)
	p.sh.q.push(e)
}

// ArmRemote schedules e in node to's context, d from now, through the
// window barrier's outbox merge. Only legal inside a transmission-commit
// event with d >= the propagation delay — the two rules the conservative
// window bound is derived from. It panics if e is pending; once armed, e
// belongs to the target's context.
func (p *nodePort) ArmRemote(to uint32, e *Event, d time.Duration) {
	if d < p.k.prop {
		panic(fmt.Sprintf("sim: ArmRemote delay %v below the propagation floor %v", d, p.k.prop))
	}
	if !p.sh.inTx {
		panic("sim: ArmRemote outside a transmission-commit (ArmTx) event")
	}
	tp, ok := p.k.nodes[to]
	if !ok {
		panic(fmt.Sprintf("sim: ArmRemote to unregistered node %d", to))
	}
	p.rseq++
	e.claim(&tp.sh.q, newKey(p.Now()+d, kindRemote, p.id, p.rseq), false)
	p.sh.out[tp.sh.idx] = append(p.sh.out[tp.sh.idx], e)
}
