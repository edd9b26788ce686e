//go:build !race

package rt_test

import (
	"runtime"
	"testing"
	"time"
)

// TestAllocsLiveRelay: in steady state an event crossing the 5-hop
// loopback line allocates only the test's own send (its closure on the
// source's loop) and a share of the links' slab turnover. Each hop's
// socket reader hands its frame to the node's loop as a job, not as a
// closure per frame, which cost 5 more per event. The count is
// process-wide, readers and loops included. The warm-up outlasts the
// duplicate caches' TTL, so that they recycle their chunks instead of
// growing.
func TestAllocsLiveRelay(t *testing.T) {
	ln := newUDPLine(t, 6, time.Minute, nil) // no interest refresh while the test counts
	stall := time.NewTimer(5 * time.Second)  // reset per arrival: a time.After would count
	defer stall.Stop()
	relay := func(events int) {
		for i := 0; i < events; i++ {
			ln.send(1)
			select {
			case <-ln.got:
				stall.Reset(5 * time.Second)
			case <-stall.C:
				t.Fatalf("event %d of %d never arrived", i+1, events)
			}
		}
	}
	for warm := time.Now(); time.Since(warm) < lineSeenTTL+200*time.Millisecond; {
		relay(100)
	}
	const events = 2000
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	relay(events)
	runtime.ReadMemStats(&ms)
	if per := float64(ms.Mallocs-before) / events; per > 1.05 {
		t.Errorf("an event across 5 hops allocates %.3f, budget 1.05", per)
	} else {
		t.Logf("an event across 5 hops allocates %.3f (budget 1.05)", per)
	}
}
