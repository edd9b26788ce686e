package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"
)

// newTestEngine returns an engine with ports for nodes 1..nodes.
func newTestEngine(seed int64, nodes int) *Engine {
	s := New(seed)
	for i := 1; i <= nodes; i++ {
		s.Port(uint32(i))
	}
	return s
}

// bound returns a fresh record bound to fn.
func bound(fn func()) *Event {
	e := &Event{}
	e.Bind(fn)
	return e
}

// everyMustPanic checks that every rejects a zero and a negative period.
func everyMustPanic(t *testing.T, every func(period time.Duration)) {
	t.Helper()
	for _, period := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Every(period=%v) must panic", period)
				}
			}()
			every(period)
		}()
	}
}

// On a node's clock (the free function) and on the engine's; the names date
// from the two engines that each had an Every.
func TestKernelEveryRejectsNonPositivePeriod(t *testing.T) {
	everyMustPanic(t, func(p time.Duration) { Every(New(1).Port(1), time.Second, p, func() {}) })
}

func TestSchedulerEveryRejectsNonPositivePeriod(t *testing.T) {
	everyMustPanic(t, func(p time.Duration) { New(1).Every(time.Second, p, func() {}) })
}

func TestKernelGlobalBeforeNodeAtEqualTime(t *testing.T) {
	k := newTestEngine(7, 2)
	var order []string
	k.Port(1).After(time.Second, func() { order = append(order, "node") })
	k.After(time.Second, func() { order = append(order, "global") })
	for k.Step() {
	}
	if len(order) != 2 || order[0] != "global" || order[1] != "node" {
		t.Errorf("order = %v, want [global node]", order)
	}
}

// TestCanonicalOrder arms one timestamp's worth of events from every class
// in scrambled order: they run global first, then local by (node, arming
// order), then remote by (sender, sending order).
func TestCanonicalOrder(t *testing.T) {
	k := newTestEngine(7, 3)
	var order []string
	log := func(tag string) *Event { return bound(func() { order = append(order, tag) }) }
	p1, p2, p3 := k.Port(1), k.Port(2), k.Port(3)
	p3.ArmRemote(1, log("remote 3.1"), time.Second)
	p2.Arm(log("local 2.1"), time.Second)
	p1.ArmRemote(3, log("remote 1.1"), time.Second)
	p3.Arm(log("local 3.1"), time.Second)
	k.Arm(log("global 1"), time.Second)
	p1.Arm(log("local 1.1"), time.Second)
	p1.ArmRemote(2, log("remote 1.2"), time.Second)
	p2.Arm(log("local 2.2"), time.Second)
	k.Arm(log("global 2"), time.Second)
	p1.Arm(log("local 1.2"), time.Second)
	for k.Step() {
	}
	want := []string{
		"global 1", "global 2",
		"local 1.1", "local 1.2", "local 2.1", "local 2.2", "local 3.1",
		"remote 1.1", "remote 1.2", "remote 3.1",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v\nwant    %v", order, want)
	}
}

// A global event armed from a node callback runs at its own timestamp, ahead
// of node events already pending for later.
func TestGlobalArmedFromNodeContextRunsAtItsOwnTime(t *testing.T) {
	k := newTestEngine(7, 1)
	p := k.Port(1)
	var order []string
	p.After(3*time.Millisecond, func() { order = append(order, fmt.Sprintf("node %v", p.Now())) })
	p.After(time.Millisecond, func() {
		k.After(time.Millisecond, func() { order = append(order, fmt.Sprintf("global %v", k.Now())) })
	})
	for k.Step() {
	}
	if want := []string{"global 2ms", "node 3ms"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestArmRemoteUnregisteredTargetPanics(t *testing.T) {
	k := newTestEngine(5, 2)
	p := k.Port(1)
	panicked := false
	p.After(time.Millisecond, func() {
		defer func() { panicked = recover() != nil }()
		p.ArmRemote(99, bound(func() {}), 3*time.Microsecond)
	})
	for k.Step() {
	}
	if !panicked {
		t.Error("ArmRemote to an unregistered node must panic")
	}
}

// kernelWorkload drives a synthetic cross-node traffic pattern and returns
// per-node execution transcripts concatenated in node order: every event's
// (time, tag) as seen by its node. Node i periodically transmits to both
// neighbors, which respond with their own local timers.
func kernelWorkload(seed int64, nodes int) []string {
	k := newTestEngine(seed, nodes)
	logs := make([][]string, nodes+1)
	for i := 1; i <= nodes; i++ {
		id := uint32(i)
		p := k.Port(id)
		step := time.Duration(1+i%3) * 10 * time.Millisecond
		k.Every(step, step, func() { // global driver, like an experiment script
			p.After(time.Millisecond, func() {
				logs[id] = append(logs[id], fmt.Sprintf("%v tx", p.Now()))
				for _, nb := range []uint32{id%uint32(nodes) + 1, (id+1)%uint32(nodes) + 1} {
					to := nb
					tp := k.Port(to)
					jitter := time.Duration(p.Rand().Intn(1000)) * time.Microsecond
					p.ArmRemote(to, bound(func() {
						logs[to] = append(logs[to], fmt.Sprintf("%v rx", tp.Now()))
						tp.After(time.Duration(tp.Rand().Intn(2000))*time.Microsecond, func() {
							logs[to] = append(logs[to], fmt.Sprintf("%v app", tp.Now()))
						})
					}), 3*time.Microsecond+jitter)
				}
			})
		})
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

// transcriptHash fingerprints a workload transcript.
func transcriptHash(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// The complete execution transcript — order included — is a pure function
// of the seed. The hashes were recorded on the sharded kernel this engine
// replaced (PR 14, c398a3a), where every shard count produced them.
func TestKernelSameSeedSameTranscript(t *testing.T) {
	for _, pin := range []struct {
		seed   int64
		nodes  int
		events int
		hash   string
	}{{11, 9, 5460, "e72b50dc4b92446a"}, {23, 6, 3640, "049432debbded3ed"}} {
		got := kernelWorkload(pin.seed, pin.nodes)
		if len(got) != pin.events || transcriptHash(got) != pin.hash {
			t.Errorf("seed %d: %d events hashing to %s, pinned %d and %s",
				pin.seed, len(got), transcriptHash(got), pin.events, pin.hash)
		}
	}
	if transcriptHash(kernelWorkload(24, 6)) == transcriptHash(kernelWorkload(23, 6)) {
		t.Error("different seeds produced identical transcripts")
	}
}

func TestKernelRunUntilAdvancesClock(t *testing.T) {
	k := newTestEngine(1, 2)
	k.RunUntil(5 * time.Second)
	if k.Now() != 5*time.Second {
		t.Errorf("Now()=%v after RunUntil(5s)", k.Now())
	}
	fired := false
	k.Port(1).After(time.Second, func() { fired = true })
	k.RunUntil(5500 * time.Millisecond)
	if fired {
		t.Error("event before its time")
	}
	k.RunUntil(7 * time.Second)
	if !fired {
		t.Error("event missed by RunUntil")
	}
}

func TestKernelPendingAndNextEventAt(t *testing.T) {
	k := newTestEngine(1, 3)
	if _, ok := headAt(k); ok {
		t.Error("empty engine reports a next event")
	}
	k.Port(1).After(2*time.Second, func() {})
	tm := k.Port(2).After(time.Second, func() {})
	k.After(3*time.Second, func() {})
	if n := k.Pending(); n != 3 {
		t.Errorf("Pending=%d want 3", n)
	}
	if at, ok := headAt(k); !ok || at != time.Second {
		t.Errorf("next event at %v,%v want 1s", at, ok)
	}
	tm.Cancel()
	if n := k.Pending(); n != 2 {
		t.Errorf("Pending=%d after cancel, want 2", n)
	}
	if at, ok := headAt(k); !ok || at != 2*time.Second {
		t.Errorf("next event at %v,%v after cancel, want 2s", at, ok)
	}
}

func TestEventHeapCompaction(t *testing.T) {
	// Cancel removes the entry at once, so after any amount of arm-and-
	// cancel churn the heap holds exactly the live entries.
	s := New(1)
	s.After(time.Hour, func() {})
	e := bound(func() {})
	for i := 0; i < 10_000; i++ {
		s.After(time.Minute, func() {}).Cancel()
		s.Arm(e, time.Minute)
		e.Cancel()
	}
	if got := len(s.events.s); got != 1 {
		t.Errorf("heap holds %d entries after cancel churn, want exactly 1", got)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending=%d want 1", s.Pending())
	}
}

func TestPendingConstantTimeAccounting(t *testing.T) {
	s := New(1)
	timers := make([]Timer, 0, 100)
	for i := 0; i < 100; i++ {
		timers = append(timers, s.After(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if s.Pending() != 100 {
		t.Fatalf("Pending=%d want 100", s.Pending())
	}
	for i, tm := range timers {
		if i%2 == 0 {
			tm.Cancel()
		}
	}
	if s.Pending() != 50 {
		t.Errorf("Pending=%d after 50 cancels, want 50", s.Pending())
	}
	// Double-cancel must not double-count.
	timers[0].Cancel()
	if s.Pending() != 50 {
		t.Errorf("Pending=%d after double cancel, want 50", s.Pending())
	}
	for s.Step() {
	}
	if s.Pending() != 0 {
		t.Errorf("Pending=%d after Run, want 0", s.Pending())
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for node := uint32(1); node <= 100; node++ {
		s := DeriveSeed(7, NodeStream(node)...)
		if seen[s] {
			t.Fatalf("derived seed collision at node %d", node)
		}
		seen[s] = true
	}
	if DeriveSeed(7, LinkStream(1, 2)...) == DeriveSeed(7, LinkStream(2, 1)...) {
		t.Error("link streams must be direction-sensitive")
	}
	if DeriveSeed(7, NodeStream(1)...) == DeriveSeed(8, NodeStream(1)...) {
		t.Error("derived seeds must depend on the master seed")
	}
}
