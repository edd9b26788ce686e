package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diffusion/internal/sim"
)

// These tests hammer the Loop shutdown contract under the race detector:
// Post, Call, After and Every racing Stop must neither deadlock nor run a
// callback after Stop has returned. The contract matters because every
// producer in the live stack — transport reader goroutines, HTTP
// handlers, retransmit and heartbeat timers — crosses onto the loop while
// the daemon's shutdown path stops it.

// TestPostRacingStop: posts from many goroutines race Stop. Every posted
// callback either runs before Stop returns or is dropped (Post reports
// false); none may run after.
func TestPostRacingStop(t *testing.T) {
	for round := 0; round < 50; round++ {
		l := NewLoop()
		var stopped atomic.Bool
		var accepted, executed atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					ok := l.Post(func() {
						if stopped.Load() {
							t.Error("callback ran after Stop returned")
						}
						executed.Add(1)
					})
					if ok {
						accepted.Add(1)
					}
				}
			}()
		}
		l.Stop()
		stopped.Store(true)
		wg.Wait()
		// Producers kept posting after Stop; those must all have been
		// refused, so acceptance and execution match exactly.
		if accepted.Load() != executed.Load() {
			t.Fatalf("accepted %d posts but executed %d", accepted.Load(), executed.Load())
		}
	}
}

// TestCallRacingStop: synchronous Calls racing Stop must return — either
// nil after running, or ErrStopped — never hang, and never run the
// function while reporting ErrStopped.
func TestCallRacingStop(t *testing.T) {
	for round := 0; round < 50; round++ {
		l := NewLoop()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					ran := false
					err := l.Call(func() { ran = true })
					switch {
					case err == nil && !ran:
						t.Error("Call returned nil without running fn")
					case err == ErrStopped && ran:
						t.Error("Call ran fn but reported ErrStopped")
					case err != nil && err != ErrStopped:
						t.Errorf("Call returned unexpected error %v", err)
					}
				}
			}()
		}
		// Let some calls through before the stop lands.
		time.Sleep(time.Duration(round%3) * 100 * time.Microsecond)
		l.Stop()
		wg.Wait() // must terminate: a hung Call fails the test by timeout
	}
}

// TestTimerRacingStop: After timers expiring around the instant of Stop
// must either fire before Stop returns or never; Cancel racing both must
// keep its guarantee (true means the callback will not run).
func TestTimerRacingStop(t *testing.T) {
	for round := 0; round < 50; round++ {
		l := NewLoop()
		var stopped atomic.Bool
		var fired [64]atomic.Bool
		var cancelled [64]atomic.Bool
		timers := make([]struct{ c func() bool }, 64)
		for i := 0; i < 64; i++ {
			i := i
			// Delays straddle the Stop instant.
			tm := l.After(time.Duration(i%8)*50*time.Microsecond, func() {
				if stopped.Load() {
					t.Error("timer callback ran after Stop returned")
				}
				fired[i].Store(true)
			})
			timers[i].c = tm.Cancel
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 64; i += 2 { // cancel half, racing dispatch
				if timers[i].c() {
					cancelled[i].Store(true)
				}
			}
		}()
		time.Sleep(100 * time.Microsecond)
		l.Stop()
		stopped.Store(true)
		wg.Wait()
		for i := range fired {
			if cancelled[i].Load() && fired[i].Load() {
				t.Fatalf("timer %d fired although Cancel returned true", i)
			}
		}
	}
}

// TestEveryRacingStop: repeating timers (sim.Every on the loop's clock)
// racing Stop must stop re-arming and never fire after Stop returns; Cancel
// after Stop is a safe no-op.
func TestEveryRacingStop(t *testing.T) {
	for round := 0; round < 30; round++ {
		l := NewLoop()
		var stopped atomic.Bool
		var ticks [8]sim.Timer
		l.Call(func() {
			for i := range ticks {
				ticks[i] = sim.Every(l, 0, 100*time.Microsecond, func() {
					if stopped.Load() {
						t.Error("Every callback ran after Stop returned")
					}
				})
			}
		})
		time.Sleep(300 * time.Microsecond)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(ticks); i += 2 {
				l.Call(func() { ticks[i].Cancel() }) // ErrStopped once Stop wins
			}
		}()
		l.Stop()
		stopped.Store(true)
		wg.Wait()
		for _, tk := range ticks {
			tk.Cancel() // post-Stop cancel must not panic or hang
		}
	}
}
