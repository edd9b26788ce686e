//go:build !race

package sim

import (
	"testing"
	"time"
)

// Arming and running a bound record allocates nothing; the closure forms
// allocate exactly the one record they arm (the callbacks here are built
// once, so none of the count is the caller's closure).
func TestAllocsArmAndAfter(t *testing.T) {
	for _, x := range bothContexts() {
		ran := 0
		fn := func() { ran++ }
		e, e2 := bound(fn), bound(fn)
		x.env.Arm(e, time.Millisecond) // grow the queue once
		x.run()
		if n := testing.AllocsPerRun(100, func() {
			x.env.Arm(e, time.Millisecond)
			x.env.Arm(e2, time.Millisecond)
			x.run()
		}); n != 0 {
			t.Errorf("%s: Arm twice + run allocate %.0f, want 0", x.name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			x.env.After(time.Millisecond, fn)
			x.run()
		}); n != 1 {
			t.Errorf("%s: After + run allocates %.0f, want 1 (the record)", x.name, n)
		}
		if want := 1 + 2*101 + 101; ran != want {
			t.Errorf("%s: ran %d callbacks, want %d", x.name, ran, want)
		}
	}
}

// A cross-node record costs nothing either.
func TestAllocsArmRemote(t *testing.T) {
	k := newTestEngine(1, 2)
	p := k.Port(1)
	ran := 0
	rx := bound(func() { ran++ })
	tx := bound(func() { p.ArmRemote(2, rx, 3*time.Microsecond) })
	round := func() {
		p.Arm(tx, time.Millisecond)
		for k.Step() {
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("Arm + ArmRemote + run allocate %.0f, want 0", n)
	}
	if ran != 102 {
		t.Errorf("ran %d remote callbacks, want 102", ran)
	}
}

// Nor does a fan-out, once its key slice has grown.
func TestAllocsFanout(t *testing.T) {
	k := newTestEngine(1, 8)
	ran := 0
	var f Fanout
	f.Bind(func(int) { ran++ })
	round := func() {
		for id := uint32(1); id <= 8; id++ {
			k.Port(id).Join(&f, time.Millisecond)
		}
		k.ArmFanout(&f)
		for k.Step() {
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("eight joins + ArmFanout + run allocate %.0f, want 0", n)
	}
	if ran != 8*102 {
		t.Errorf("ran %d sub-events, want %d", ran, 8*102)
	}
}

// An Every on an Engine or a Port re-arms its own record: a period
// allocates nothing.
func TestAllocsEvery(t *testing.T) {
	g, k := New(1), newTestEngine(1, 2)
	for _, x := range []struct {
		name string
		eng  *Engine
		env  Env
	}{{"global", g, g}, {"node", k, k.Port(1)}} {
		ran := 0
		tm := Every(x.env, time.Millisecond, time.Millisecond, func() { ran++ })
		period := func() { x.eng.RunUntil(x.eng.Now() + time.Millisecond) }
		period()
		if n := testing.AllocsPerRun(100, period); n != 0 {
			t.Errorf("%s: a period of Every allocates %.0f, want 0", x.name, n)
		}
		if !tm.Cancel() || ran != 102 {
			t.Errorf("%s: ran %d periods and then was not pending, want 102 and pending", x.name, ran)
		}
	}
}
