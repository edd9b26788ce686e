package rt

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diffusion/internal/sim"
)

// TestLoopSerializesCallbacks hammers one loop from many goroutines and
// checks callbacks never overlap: the invariant that lets lock-free node
// code run live.
func TestLoopSerializesCallbacks(t *testing.T) {
	l := NewLoop()
	defer l.Stop()

	var inside, overlaps, ran int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l.Post(func() {
					if atomic.AddInt32(&inside, 1) != 1 {
						atomic.AddInt32(&overlaps, 1)
					}
					atomic.AddInt32(&ran, 1)
					atomic.AddInt32(&inside, -1)
				})
			}
		}()
	}
	wg.Wait()
	if err := l.Call(func() {}); err != nil {
		t.Fatal(err)
	}
	if overlaps != 0 {
		t.Fatalf("%d overlapping callback executions", overlaps)
	}
	if ran != 8*200 {
		t.Fatalf("ran %d callbacks, want %d", ran, 8*200)
	}
}

// TestLoopPreservesPostOrder checks same-goroutine posts execute FIFO.
func TestLoopPreservesPostOrder(t *testing.T) {
	l := NewLoop()
	defer l.Stop()

	var got []int
	for i := 0; i < 100; i++ {
		i := i
		l.Post(func() { got = append(got, i) })
	}
	if err := l.Call(func() {}); err != nil {
		t.Fatal(err)
	}
	l.Call(func() {
		for i, v := range got {
			if v != i {
				t.Fatalf("position %d holds %d; posts reordered", i, v)
			}
		}
	})
}

// Callbacks and frames share one FIFO: posted alternately from one
// goroutine, each runs in its posting order, the frames with their own
// sender and payload.
func TestLoopInterleavesPostsAndFrames(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	var got []int
	recv := func(from uint32, payload []byte) { got = append(got, int(from)+int(payload[0])) }
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			i := i
			l.Post(func() { got = append(got, i) })
		} else {
			l.PostFrame(recv, uint32(i-1), []byte{1})
		}
	}
	if err := l.Call(func() {}); err != nil {
		t.Fatal(err)
	}
	l.Call(func() {
		for i, v := range got {
			if v != i {
				t.Fatalf("position %d holds %d; posts and frames reordered", i, v)
			}
		}
		if len(got) != 100 {
			t.Fatalf("ran %d of 100 jobs", len(got))
		}
	})
}

// TestAfterFiresOnLoop checks timers dispatch onto the loop goroutine and
// observe the clock monotonically.
func TestAfterFiresOnLoop(t *testing.T) {
	l := NewLoop()
	defer l.Stop()

	done := make(chan time.Duration, 1)
	before := l.Now()
	l.After(10*time.Millisecond, func() { done <- l.Now() })
	select {
	case at := <-done:
		if at < before {
			t.Fatalf("timer fired at %v, armed at %v", at, before)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

// TestCancelGuaranteesNoRun cancels timers whose underlying time.Timer has
// already expired (dispatch queued behind a blocker): a successful Cancel
// must still win.
func TestCancelGuaranteesNoRun(t *testing.T) {
	l := NewLoop()
	defer l.Stop()

	release := make(chan struct{})
	blocked := make(chan struct{})
	l.Post(func() { close(blocked); <-release })
	<-blocked

	fired := make(chan struct{}, 1)
	tm := l.After(time.Millisecond, func() { fired <- struct{}{} })
	// Let the wall timer expire and queue its dispatch behind the blocker.
	time.Sleep(20 * time.Millisecond)
	cancelled := tm.Cancel()
	close(release)

	if err := l.Call(func() {}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
		if cancelled {
			t.Fatal("Cancel returned true but the callback ran")
		}
	default:
		if !cancelled {
			t.Fatal("callback never ran yet Cancel returned false")
		}
	}
	if tm.Cancel() {
		t.Fatal("second Cancel must report not-pending")
	}
}

// TestEveryRepeatsAndCancels checks the one repeat timer, sim.Every, on the
// loop's clock: armed and cancelled on the loop, it fires repeatedly and
// never after Cancel.
func TestEveryRepeatsAndCancels(t *testing.T) {
	l := NewLoop()
	defer l.Stop()

	var n atomic.Int32
	var tm sim.Timer
	l.Call(func() { tm = sim.Every(l, time.Millisecond, time.Millisecond, func() { n.Add(1) }) })
	deadline := time.Now().Add(5 * time.Second)
	for n.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n.Load() < 3 {
		t.Fatal("periodic timer did not fire repeatedly")
	}
	l.Call(func() { tm.Cancel() })
	frozen := n.Load()
	time.Sleep(20 * time.Millisecond)
	l.Call(func() {})
	if d := n.Load() - frozen; d != 0 {
		t.Fatalf("timer fired %d times after Cancel", d)
	}
}

// TestStopDropsLatePostsAndCalls checks post-stop behavior: Post reports
// false, Call returns ErrStopped, and neither blocks.
func TestStopDropsLatePostsAndCalls(t *testing.T) {
	l := NewLoop()
	l.Stop()
	l.Stop() // idempotent
	if l.Post(func() { t.Error("post ran after Stop") }) {
		t.Fatal("Post after Stop must report false")
	}
	if err := l.Call(func() {}); err != ErrStopped {
		t.Fatalf("Call after Stop = %v, want ErrStopped", err)
	}
}

// TestLoopGoroutineExit checks Stop releases the loop goroutine — the
// leak check the daemon's clean-shutdown guarantee builds on.
func TestLoopGoroutineExit(t *testing.T) {
	before := runtime.NumGoroutine()
	loops := make([]*Loop, 50)
	for i := range loops {
		loops[i] = NewLoop()
		loops[i].After(time.Hour, func() {})
	}
	for _, l := range loops {
		l.Stop()
	}
	if !goroutinesSettle(before) {
		t.Fatalf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
	}
}

// goroutinesSettle polls until the goroutine count returns to within a
// small tolerance of base (timer dispatch goroutines need a moment to
// drain), reporting success.
func goroutinesSettle(base int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestLoopReleasesRunClosures: a callback or frame that has run is no
// longer reachable from the loop, nor is what it captured or carried. The queue used to
// advance a slice head over one backing array, which kept every executed
// closure — and the datagram it carried — alive until the array was next
// re-grown.
func TestLoopReleasesRunClosures(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	const n, size = 16, 1 << 20
	sum := 0
	recv := func(_ uint32, payload []byte) { sum += int(payload[size-1]) }
	for i := 0; i < n; i++ {
		payload := make([]byte, size)
		payload[size-1] = 1
		if i%2 == 0 {
			l.Post(func() { sum += int(payload[size-1]) })
		} else {
			l.PostFrame(recv, 0, payload) // a frame's payload is released too
		}
	}
	if err := l.Call(func() {}); err != nil {
		t.Fatal(err)
	}
	if sum != n {
		t.Fatalf("ran %d of %d callbacks", sum, n)
	}
	if held := int64(heap()) - int64(base); held > 2*size {
		t.Errorf("%d KiB still live after %d callbacks carrying %d KiB each have run", held>>10, n, size>>10)
	}
}

// TestStopAcrossBatchBoundary pins Stop's guarantee where the batch drain
// could break it: with one batch executing and another queued behind it,
// Stop still lets everything accepted so far run, in order, and nothing
// posted afterwards.
func TestStopAcrossBatchBoundary(t *testing.T) {
	l := NewLoop()
	started, gate := make(chan struct{}), make(chan struct{})
	var order []int
	l.Post(func() {
		close(started)
		<-gate
		order = append(order, 0)
	})
	<-started // the first batch, this callback alone, is executing
	for i := 1; i <= 5; i++ {
		i := i
		l.Post(func() { order = append(order, i) }) // the second batch
	}
	stopped := make(chan struct{})
	go func() {
		l.Stop()
		close(stopped)
	}()
	accepted, ran := 0, 0
	for l.Post(func() { ran++ }) { // until Stop has taken effect
		accepted++
		runtime.Gosched()
	}
	close(gate)
	<-stopped
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(order, want) {
		t.Errorf("callbacks queued before Stop ran as %v, want %v", order, want)
	}
	if ran != accepted {
		t.Errorf("%d callbacks were accepted while Stop was pending, %d ran", accepted, ran)
	}
}

// TestDeferRunsAtEndOfBatch pins the loop's end-of-batch edge: what a
// wake-up's callbacks defer runs after the last of them, in call order — a
// deferred call's own deferral included — and before anything posted since.
func TestDeferRunsAtEndOfBatch(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	started, gate, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var order []string
	log := func(s string) func() { return func() { order = append(order, s) } }
	l.Post(func() {
		close(started)
		<-gate
		l.Defer(log("a.deferred"))
	})
	<-started       // the first batch, this callback alone, is executing
	l.Post(func() { // the second batch: this callback and the next
		order = append(order, "b")
		l.Defer(log("b.first"))
		l.Defer(func() {
			order = append(order, "b.second")
			l.Defer(log("b.nested"))
		})
		l.Post(func() { // the third
			order = append(order, "d")
			l.Defer(func() { close(done) })
		})
	})
	l.Post(log("c"))
	close(gate)
	<-done
	want := []string{"a.deferred", "b", "c", "b.first", "b.second", "b.nested", "d"}
	if !slices.Equal(order, want) {
		t.Errorf("ran %v\nwant %v", order, want)
	}
}

// TestDeferRunsInFinalBatch: the last batch before Stop returns has its edge
// like any other, so what it deferred — a held write — is not lost.
func TestDeferRunsInFinalBatch(t *testing.T) {
	l := NewLoop()
	started, gate := make(chan struct{}), make(chan struct{})
	l.Post(func() {
		close(started)
		<-gate
	})
	<-started
	ran := false
	l.Post(func() { l.Defer(func() { ran = true }) }) // queued behind the gate
	stopped := make(chan struct{})
	go func() {
		l.Stop()
		close(stopped)
	}()
	for l.Post(func() {}) { // until Stop has taken effect
		runtime.Gosched()
	}
	close(gate)
	<-stopped
	if !ran {
		t.Error("Stop returned without running what the final batch deferred")
	}
}
