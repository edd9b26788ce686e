package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	for s.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events out of order: %v", got)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("clock = %v, want 30ms", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, func() { got = append(got, i) })
	}
	for s.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events must run FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	s.After(10*time.Millisecond, func() {
		fired = append(fired, s.Now())
		s.After(5*time.Millisecond, func() { fired = append(fired, s.Now()) })
	})
	for s.Step() {
	}
	if len(fired) != 2 || fired[0] != 10*time.Millisecond || fired[1] != 15*time.Millisecond {
		t.Errorf("nested scheduling: %v", fired)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Millisecond, func() { ran = true })
	if !tm.Cancel() {
		t.Error("first Cancel should report pending")
	}
	if tm.Cancel() {
		t.Error("second Cancel should report not pending")
	}
	for s.Step() {
	}
	if ran {
		t.Error("cancelled event must not run")
	}
}

func TestNegativeDelayRunsImmediately(t *testing.T) {
	s := New(1)
	ran := false
	s.After(-time.Second, func() { ran = true })
	for s.Step() {
	}
	if !ran || s.Now() != 0 {
		t.Errorf("negative delay: ran=%v now=%v", ran, s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Second, func() { count++ })
	}
	s.RunUntil(5 * time.Second)
	if count != 5 {
		t.Errorf("RunUntil(5s) ran %d events, want 5", count)
	}
	if s.Now() != 5*time.Second {
		t.Errorf("clock should advance to the horizon: %v", s.Now())
	}
	if s.Pending() != 5 {
		t.Errorf("Pending()=%d, want 5", s.Pending())
	}
	s.RunUntil(20 * time.Second)
	if count != 10 {
		t.Errorf("second RunUntil: count=%d", count)
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	var at []time.Duration
	var tm Timer
	tm = s.Every(time.Second, 2*time.Second, func() {
		at = append(at, s.Now())
		if len(at) == 3 {
			tm.Cancel()
		}
	})
	s.RunUntil(time.Minute)
	want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}
	if len(at) != 3 {
		t.Fatalf("Every fired %d times: %v", len(at), at)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestEveryCancelBeforeFirst(t *testing.T) {
	s := New(1)
	n := 0
	tm := s.Every(time.Second, time.Second, func() { n++ })
	tm.Cancel()
	s.RunUntil(10 * time.Second)
	if n != 0 {
		t.Errorf("cancelled Every fired %d times", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int {
		s := New(seed)
		var draws []int
		s.Every(time.Second, time.Second, func() {
			draws = append(draws, s.Rand().Intn(1000))
		})
		s.RunUntil(50 * time.Second)
		return draws
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical runs")
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different draws")
	}
}

// Property: after Run, the clock equals the max scheduled event time and
// events executed in nondecreasing time order.
func TestQuickOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := New(seed)
		var times []time.Duration
		var maxT time.Duration
		n := r.Intn(50) + 1
		for i := 0; i < n; i++ {
			d := time.Duration(r.Intn(1000)) * time.Millisecond
			if d > maxT {
				maxT = d
			}
			s.After(d, func() { times = append(times, s.Now()) })
		}
		for s.Step() {
		}
		if len(times) != n || s.Now() != maxT {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestRealClock(t *testing.T) {
	c := NewRealClock()
	done := make(chan struct{})
	c.After(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("RealClock timer did not fire")
	}
	if c.Now() <= 0 {
		t.Error("RealClock.Now should advance")
	}
	tm := c.After(time.Hour, func() { t.Error("must not fire") })
	if !tm.Cancel() {
		t.Error("Cancel on pending real timer")
	}
}

func TestNextEventAt(t *testing.T) {
	s := New(1)
	if _, ok := headAt(s); ok {
		t.Error("empty queue has no next event")
	}
	tm := s.After(5*time.Second, func() {})
	if at, ok := headAt(s); !ok || at != 5*time.Second {
		t.Errorf("next event at %v, %v", at, ok)
	}
	tm.Cancel()
	if _, ok := headAt(s); ok {
		t.Error("cancelled events must not count as next")
	}
}
