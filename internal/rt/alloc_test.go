//go:build !race

package rt

import "testing"

// Steady-state Post, Defer and run allocate nothing of their own: the loop's
// two queue arrays alternate instead of one being re-grown behind a moving
// head, and the deferred list is emptied in place. The closures are built
// once, so none of the count is the caller's.
func TestAllocsPostRun(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	const burst = 64
	done := make(chan struct{}, 1)
	ran, flushed := 0, 0
	flush := func() { flushed++ }
	step := func() {
		ran++
		l.Defer(flush)
	}
	last := func() { done <- struct{}{} }
	round := func() {
		for i := 0; i < burst; i++ {
			l.Post(step)
		}
		l.Post(last)
		<-done
	}
	for i := 0; i < 8; i++ {
		round() // grow both arrays to the burst size
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("%d posts and %d deferrals allocate %.0f/round in steady state", burst+1, burst, n)
	}
	l.Stop()
	if want := (8 + 101) * burst; ran != want || flushed != want {
		t.Errorf("ran %d callbacks and %d deferred calls, want %d of each", ran, flushed, want)
	}
}
