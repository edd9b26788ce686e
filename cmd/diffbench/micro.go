package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/custody"
	"diffusion/internal/match"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// Timed calls into single layers, on the workload's own inputs. They run in
// the traced run only, after the stacks are stopped, so nothing else is
// allocating while timeOp reads the process-wide counters.

// sink keeps the compiler from discarding a timed call's result.
var sink any

// microCodec times the message codec and the two-way match on msg.
func microCodec(rep *report, budget time.Duration, msg *message.Message, interest attr.Vec) {
	wire := msg.Marshal()
	rep.metrics["message.marshal_ns"], rep.metrics["message.marshal_allocs"] =
		timeOp(budget, func() { sink = msg.Marshal() })
	rep.metrics["message.unmarshal_ns"], rep.metrics["message.unmarshal_allocs"] =
		timeOp(budget, func() { sink, _ = message.Unmarshal(wire) })
	rep.metrics["message.clone_ns"], rep.metrics["message.clone_allocs"] =
		timeOp(budget, func() { sink = msg.Clone() })
	matched := false
	rep.metrics["attr.match_ns"], _ = timeOp(budget, func() { matched = attr.Match(interest, msg.Attrs) })
	if !matched {
		rep.problems = append(rep.problems, "the workload's interest does not match its own data")
	}
}

// microMatch times the match index standalone on the broker's vectors:
// lookups beside add/remove, so a gain for one that costs the other shows.
func microMatch(rep *report, budget time.Duration, vecs []attr.Vec, probes []attr.Vec) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix := match.New(match.TwoWay)
	for i, v := range vecs {
		ix.Add(v, uint64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	rep.metrics["match.heap_bytes_per_sub"] = float64(after.HeapAlloc-before.HeapAlloc) / float64(len(vecs))

	var dst []uint64
	i := 0
	s0 := ix.Stats()
	rep.metrics["match.lookup_ns"], _ = timeOp(budget, func() {
		dst = ix.Lookup(probes[i%len(probes)], dst[:0])
		i++
	})
	s1 := ix.Stats()
	rep.metrics["match.candidates_per_lookup"] = float64(s1.CandidatesScanned-s0.CandidatesScanned) / float64(s1.Lookups-s0.Lookups)

	// Add and remove, each timed over one batch on top of the working set.
	extra := vecs[:min(len(vecs), 50_000)]
	handles := make([]match.Handle, len(extra))
	start := time.Now()
	for j, v := range extra {
		handles[j] = ix.Add(v, uint64(len(vecs)+j))
	}
	rep.metrics["match.add_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(extra))
	start = time.Now()
	for _, h := range handles {
		ix.Remove(h)
	}
	rep.metrics["match.remove_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(extra))
	sink = ix
}

// microCustody times the custody queue in memory and one journaled accept,
// which is an fsync and so says more about the disk than about the code.
func microCustody(rep *report, payload []byte) {
	// A queue of the default limit is filled and emptied in order, the way
	// a node with a full custody queue drains it.
	const rounds = 50
	q := custody.NewQueue(custody.DefaultLimit, nil)
	var accept, release time.Duration
	for r := uint32(0); r < rounds; r++ {
		start := time.Now()
		for n := uint32(1); n <= custody.DefaultLimit; n++ {
			q.Accept(message.ID{RandID: r, PktNum: n}, payload)
		}
		accept += time.Since(start)
		start = time.Now()
		for n := uint32(1); n <= custody.DefaultLimit; n++ {
			q.Release(message.ID{RandID: r, PktNum: n})
		}
		release += time.Since(start)
	}
	rep.metrics["custody.accept_ns"] = float64(accept.Nanoseconds()) / (rounds * custody.DefaultLimit)
	rep.metrics["custody.release_ns"] = float64(release.Nanoseconds()) / (rounds * custody.DefaultLimit)

	// The journal lives under the working directory: the benchmark writes
	// nowhere else.
	dir, err := os.MkdirTemp(".", ".diffbench-journal-")
	if err != nil {
		rep.notes = append(rep.notes, "custody.store_append_us skipped: "+err.Error())
		return
	}
	defer os.RemoveAll(dir)
	store, _, err := custody.OpenStore(filepath.Join(dir, "custody.log"))
	if err != nil {
		rep.notes = append(rep.notes, "custody.store_append_us skipped: "+err.Error())
		return
	}
	defer store.Close()
	const appends = 32
	start := time.Now()
	for i := uint32(0); i < appends; i++ {
		if err := store.JournalAccept(message.ID{RandID: 3, PktNum: i + 1}, payload); err != nil {
			rep.notes = append(rep.notes, "custody.store_append_us skipped: "+err.Error())
			return
		}
	}
	rep.metrics["custody.store_append_us"] = float64(time.Since(start).Microseconds()) / appends
}

// microKernel times the event kernel alone: 1024 ports each re-arming a
// timer, ns of host time per fired event.
func microKernel(rep *report, events int) {
	const ports = 1024
	k := sim.NewKernel(sim.KernelConfig{Seed: 1, Shards: 1, Propagation: time.Microsecond})
	fired := 0
	for id := uint32(1); id <= ports; id++ {
		p := k.AddNode(id, 0)
		period := time.Millisecond + time.Duration(id)*time.Microsecond
		var tick func()
		tick = func() {
			fired++
			p.After(period, tick)
		}
		p.After(period, tick)
	}
	start := time.Now()
	k.RunUntil(time.Duration(events/ports) * time.Millisecond)
	if fired > 0 {
		rep.metrics["sim.kernel_event_ns"] = float64(time.Since(start).Nanoseconds()) / float64(fired)
	}
}
