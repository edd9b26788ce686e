package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// execEnv is what the contract tests need of a scheduling context.
type execEnv struct {
	name string
	env  Env
	run  func()
}

// bothContexts returns the global context of one engine and a node context
// of another.
func bothContexts() []execEnv {
	g, n := New(1), newTestEngine(1, 2)
	return []execEnv{{"global", g, func() { drain(g) }}, {"node", n.Port(1), func() { drain(n) }}}
}

// drain runs s until no event remains.
func drain(s *Engine) {
	for s.Step() {
	}
}

func TestCancelAfterFire(t *testing.T) {
	// Timer.Cancel "reports whether the callback was still pending": once
	// the callback has run there is nothing left to cancel.
	for _, x := range bothContexts() {
		ran := 0
		tm := x.env.After(time.Millisecond, func() { ran++ })
		x.run()
		if ran != 1 {
			t.Fatalf("%s: callback ran %d times", x.name, ran)
		}
		if tm.Cancel() {
			t.Errorf("%s: Cancel after the callback fired reported pending", x.name)
		}
		tm = x.env.After(time.Millisecond, func() { ran++ })
		if !tm.Cancel() || tm.Cancel() {
			t.Errorf("%s: first Cancel of a pending timer must report true, the second false", x.name)
		}
		x.run()
		if ran != 1 {
			t.Errorf("%s: cancelled callback ran", x.name)
		}
	}
}

func TestArmPendingPanics(t *testing.T) {
	for _, x := range bothContexts() {
		e := bound(func() {})
		x.env.Arm(e, time.Second)
		for name, arm := range map[string]func(){
			"Arm":  func() { x.env.Arm(e, time.Second) },
			"Bind": func() { e.Bind(func() {}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s on a pending record must panic", x.name, name)
					}
				}()
				arm()
			}()
		}
	}
	// A record armed for another node is pending too.
	k := newTestEngine(1, 2)
	p := k.Port(1)
	panicked := false
	p.After(time.Millisecond, func() {
		e := bound(func() {})
		p.ArmRemote(2, e, 3*time.Microsecond)
		defer func() { panicked = recover() != nil }()
		p.ArmRemote(2, e, 3*time.Microsecond)
	})
	for k.Step() {
	}
	if !panicked {
		t.Error("ArmRemote of a record already armed must panic")
	}
}

func TestCancelThenRearmFiresOnce(t *testing.T) {
	for _, x := range bothContexts() {
		var at []time.Duration
		e := bound(func() { at = append(at, x.env.Now()) })
		x.env.Arm(e, time.Second)
		if !e.Cancel() {
			t.Fatalf("%s: Cancel of an armed record reported idle", x.name)
		}
		x.env.Arm(e, 3*time.Second)
		x.run()
		if len(at) != 1 || at[0] != 3*time.Second {
			t.Errorf("%s: fired at %v, want once at 3s", x.name, at)
		}
		if e.Cancel() {
			t.Errorf("%s: record still pending after it fired", x.name)
		}
	}
}

func TestRecordRearmsItselfFromCallback(t *testing.T) {
	for _, x := range bothContexts() {
		n := 0
		e := &Event{}
		e.Bind(func() {
			if n++; n < 5 {
				x.env.Arm(e, time.Second)
			}
		})
		x.env.Arm(e, time.Second)
		x.run()
		if n != 5 || x.env.Now() != 5*time.Second {
			t.Errorf("%s: %d firings ending at %v, want 5 at 5s", x.name, n, x.env.Now())
		}
	}
}

// clockOnly hides everything of a Port but its Clock, so Every on it takes
// the closure form.
type clockOnly struct{ Clock }

// ArmOn arms an owned record on a Port itself, so the record is the pending
// entry and its Timer; on a Clock that is no Env it is an After of the
// record's callback, which runs at the same instant and cancels through the
// Timer After returned, while the record itself is never pending.
func TestArmOnEitherClock(t *testing.T) {
	for _, plain := range []bool{false, true} {
		k := newTestEngine(1, 1)
		var c Clock = k.Port(1)
		if plain {
			c = clockOnly{c}
		}
		var fired []time.Duration
		e := bound(func() { fired = append(fired, k.Now()) })
		if tm := ArmOn(c, e, 3*time.Millisecond); (tm == Timer(e)) == plain {
			t.Errorf("plain=%v: ArmOn returned %T", plain, tm)
		}
		if e.Cancel() == plain {
			t.Errorf("plain=%v: cancelling the record reported the wrong pending state", plain)
		}
		ArmOn(c, e, 5*time.Millisecond)
		ArmOn(c, bound(func() { t.Error("a cancelled record fired") }), time.Millisecond).Cancel()
		for k.Step() {
		}
		want := []time.Duration{5 * time.Millisecond}
		if plain {
			// The record itself was never pending, so cancelling it
			// cancelled nothing: the first arming fires too.
			want = []time.Duration{3 * time.Millisecond, 5 * time.Millisecond}
		}
		if !slices.Equal(fired, want) {
			t.Errorf("plain=%v: fired at %v, want %v", plain, fired, want)
		}
	}
}

// armWorkload is kernelWorkload's traffic written twice over: with the
// closure form (After, and a fresh record per remote event) or with records
// each node owns and re-arms. Both make the same scheduling calls in the
// same order, so they must produce the same canonical transcript. Each node
// also runs an Every, and every fourth node one it cancels before it fires.
func armWorkload(nodes int, records bool) []string {
	k := newTestEngine(11, nodes)
	logs := make([][]string, nodes+1)
	for i := 1; i <= nodes; i++ {
		id := uint32(i)
		p := k.Port(id)
		to := id%uint32(nodes) + 1
		tp := k.Port(to)
		app := func() { logs[to] = append(logs[to], fmt.Sprintf("%v app", tp.Now())) }
		appEv, rxEv, txEv := bound(app), &Event{}, &Event{}
		rx := func() {
			logs[to] = append(logs[to], fmt.Sprintf("%v rx", tp.Now()))
			d := time.Duration(tp.Rand().Intn(2000)) * time.Microsecond
			if records {
				tp.Arm(appEv, d)
			} else {
				tp.After(d, app)
			}
		}
		rxEv.Bind(rx)
		tx := func() {
			logs[id] = append(logs[id], fmt.Sprintf("%v tx", p.Now()))
			d := 3*time.Microsecond + time.Duration(p.Rand().Intn(1000))*time.Microsecond
			if records {
				p.ArmRemote(to, rxEv, d)
			} else {
				p.ArmRemote(to, bound(rx), d)
			}
		}
		txEv.Bind(tx)
		step := time.Duration(1+i%3) * 10 * time.Millisecond
		k.Every(step, step, func() {
			if records {
				p.Arm(txEv, time.Millisecond)
			} else {
				p.After(time.Millisecond, tx)
			}
		})
		// A per-node Every: on the Port in the records form, on a Clock-only
		// view of it (which has no Arm) in the closure form.
		var clk Clock = p
		if !records {
			clk = clockOnly{p}
		}
		fires := 0
		var tm Timer
		tm = Every(clk, time.Duration(i)*time.Millisecond, 35*time.Millisecond, func() {
			logs[id] = append(logs[id], fmt.Sprintf("%v every %d", p.Now(), p.Rand().Intn(100)))
			if fires++; i%3 == 0 && fires == 20 {
				logs[id] = append(logs[id], fmt.Sprintf("%v cancel from inside %v", p.Now(), tm.Cancel()))
			}
		})
		if i%4 == 0 {
			late := Every(clk, 50*time.Millisecond, 10*time.Millisecond, func() {
				logs[id] = append(logs[id], fmt.Sprintf("%v late", p.Now()))
			})
			k.After(5*time.Millisecond, func() {
				logs[id] = append(logs[id], fmt.Sprintf("%v cancel before the first fire %v", p.Now(), late.Cancel()))
			})
		}
	}
	k.RunUntil(2 * time.Second)
	var out []string
	for i := 1; i <= nodes; i++ {
		for _, line := range logs[i] {
			out = append(out, fmt.Sprintf("n%d %s", i, line))
		}
	}
	return out
}

// The hash was recorded by the engine whose Every re-armed through After,
// before it gained the record form; the workload without the Every lines
// reproduced the sharded kernel's pin (c398a3a).
func TestArmFormMatchesAfterForm(t *testing.T) {
	for _, records := range []bool{false, true} {
		got := armWorkload(9, records)
		if len(got) != 3687 || transcriptHash(got) != "9eb19d67cf392c54" {
			t.Errorf("records=%v: %d events hashing to %s, pinned 3687 and 9eb19d67cf392c54",
				records, len(got), transcriptHash(got))
		}
	}
}

// Random arm/cancel/fire traffic against the typed heap: every entry knows
// its own index, nothing cancelled ever fires, and what fires comes out in
// canonical (time, then arming) order.
func TestHeapRemoveAtAnyIndex(t *testing.T) {
	s := New(3)
	rng := s.DeriveRand(1)
	type rec struct {
		ev        *Event
		seq       int
		cancelled bool
	}
	var fired []*rec
	var live []*rec
	for i := 0; i < 5000; i++ {
		r := &rec{seq: i}
		r.ev = bound(func() { fired = append(fired, r) })
		s.Arm(r.ev, time.Duration(rng.Intn(50))*time.Millisecond)
		live = append(live, r)
		if rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			live[j].cancelled = live[j].ev.Cancel() || live[j].cancelled
		}
		if rng.Intn(8) == 0 {
			s.Step()
		}
		for j, en := range s.events.s {
			if en.ev.index != j || en.ev.h != &s.events || en.key != en.ev.key {
				t.Fatalf("round %d: entry %d is out of step with its record", i, j)
			}
		}
	}
	for s.Step() {
	}
	want := 0
	for _, r := range live {
		if !r.cancelled {
			want++
		}
	}
	if len(fired) != want {
		t.Fatalf("%d records fired, want %d", len(fired), want)
	}
	for i, r := range fired {
		if r.cancelled {
			t.Fatalf("cancelled record %d fired", r.seq)
		}
		if i > 0 && r.ev.key.less(fired[i-1].ev.key) {
			t.Fatalf("record %d fired before %d, against canonical order", fired[i-1].seq, r.seq)
		}
	}
}
