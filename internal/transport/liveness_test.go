package transport

import (
	"slices"
	"testing"
	"time"
)

// pings counts the probes a detector step queued.
func pings(fx *effects) int {
	n := 0
	for i := 0; i < fx.n; i++ {
		if fx.at(i).kind == kindPing {
			n++
		}
	}
	return n
}

// TestDetectorClassifiesSilence steps the detector engine at chosen clock
// readings and checks the full alive → suspect → dead → alive cycle, its
// accounting, and the deadlines it asks to be woken at.
func TestDetectorClassifiesSilence(t *testing.T) {
	var stats Stats
	var seen []PeerState
	d := newDetector(LivenessConfig{Interval: time.Second}, 1, testTable(2), &stats, 0)
	tick := func(now time.Duration) *effects {
		fx := &effects{}
		d.tick(now, fx)
		for _, tr := range fx.transitions {
			seen = append(seen, tr.state)
		}
		return fx
	}
	state := func(now time.Duration) PeerState { return d.snapshot(now)[2].State }

	// A new peer is probed at once so RTTs appear early.
	if d.nextDeadline() != 0 {
		t.Fatalf("first deadline = %v, want 0", d.nextDeadline())
	}
	if fx := tick(0); pings(fx) != 1 {
		t.Fatalf("first tick queued %d probes, want 1", pings(fx))
	}

	// Up to SuspectAfter (3×Interval default) of silence: still alive, and
	// the detector wants waking no later than that threshold.
	tick(2999 * time.Millisecond)
	if got := state(2999 * time.Millisecond); got != PeerAlive {
		t.Fatalf("state after 2.999s silence = %v, want alive", got)
	}
	if d.nextDeadline() > 3*time.Second {
		t.Fatalf("next deadline %v is past the suspect threshold", d.nextDeadline())
	}
	// Exactly SuspectAfter: suspect.
	tick(3 * time.Second)
	if got := state(3 * time.Second); got != PeerSuspect {
		t.Fatalf("state after 3s silence = %v, want suspect", got)
	}
	if stats.PeerSuspects.Load() != 1 {
		t.Fatalf("suspects = %d, want 1", stats.PeerSuspects.Load())
	}

	// Exactly DeadAfter (8×Interval default): dead, and the node is
	// isolated (its only neighbor is dead).
	tick(8*time.Second - 1)
	if got := state(8*time.Second - 1); got != PeerSuspect {
		t.Fatalf("state just before DeadAfter = %v, want suspect", got)
	}
	tick(8 * time.Second)
	if got := state(8 * time.Second); got != PeerDead {
		t.Fatalf("state after 8s silence = %v, want dead", got)
	}
	if stats.PeerDeaths.Load() != 1 {
		t.Fatalf("deaths = %d, want 1", stats.PeerDeaths.Load())
	}
	if !d.allDead() {
		t.Fatal("allDead should report isolation with the only neighbor dead")
	}
	// Re-ticking must not re-fire the transition.
	tick(10 * time.Second)
	if stats.PeerDeaths.Load() != 1 {
		t.Fatal("dead transition fired twice")
	}

	// Any frame heard revives instantly.
	fx := &effects{}
	d.heard(d.tab.peers[2], 11*time.Second, fx)
	if len(fx.transitions) != 1 || fx.transitions[0] != (transition{2, PeerAlive}) {
		t.Fatalf("heard reported %v, want the recovery", fx.transitions)
	}
	seen = append(seen, PeerAlive)
	if got := state(11 * time.Second); got != PeerAlive {
		t.Fatalf("state after heard = %v, want alive", got)
	}
	if stats.PeerRecoveries.Load() != 1 {
		t.Fatalf("recoveries = %d, want 1", stats.PeerRecoveries.Load())
	}
	if d.allDead() {
		t.Fatal("recovered peer still counted dead")
	}
	if d.heard(d.tab.peers[2], 12*time.Second, fx); len(fx.transitions) != 1 {
		t.Fatal("hearing from an alive peer is not a recovery")
	}
	if want := []PeerState{PeerSuspect, PeerDead, PeerAlive}; !slices.Equal(seen, want) {
		t.Fatalf("transitions = %v, want %v", seen, want)
	}
}

// TestDetectorProbeBackoff checks that probes toward a silent peer back
// off exponentially up to the cap, and that a completed pong records an
// RTT.
func TestDetectorProbeBackoff(t *testing.T) {
	var stats Stats
	cfg := LivenessConfig{Interval: time.Second, MaxProbeBackoff: 4 * time.Second}
	d := newDetector(cfg, 1, testTable(7), &stats, 0)

	// Wake the detector exactly when it asks, over two minutes of silence;
	// with backoff doubling 1s → 2s → 4s (cap), far fewer probes must go
	// out than the ~120 an un-backed-off 1 Hz probe stream would send.
	probes := 0
	var now time.Duration
	for now = d.nextDeadline(); now < 2*time.Minute; now = d.nextDeadline() {
		fx := &effects{}
		d.tick(now, fx)
		probes += pings(fx)
	}
	// 120s at the 4s cap is ~30 probes plus the pre-cap ramp, with ±25%
	// jitter.
	if probes < 20 || probes > 45 {
		t.Fatalf("probes = %d over 120s of silence, want about 30", probes)
	}

	// A pong matching the outstanding probe seq records the RTT.
	e := d.tab.peers[7]
	p := &e.live
	d.pong(e, p.pingSeq+1, p.pingAt+time.Millisecond)
	if stats.RTTCount.Load() != 0 {
		t.Fatal("a pong for another probe must not record an RTT")
	}
	d.pong(e, p.pingSeq, p.pingAt+3*time.Millisecond)
	if stats.RTTCount.Load() != 1 || stats.RTTMicrosSum.Load() != 3000 {
		t.Fatalf("rtt accounting: count=%d sum=%dus, want 1 and 3000",
			stats.RTTCount.Load(), stats.RTTMicrosSum.Load())
	}
}

// TestUDPLivenessEndToEnd runs the detector between two endpoints: a
// partition (SetBlocked) silences the peer, which must go suspect then dead
// exactly on the configured thresholds; healing it must revive the peer.
func TestUDPLivenessEndToEnd(t *testing.T) {
	live := &LivenessConfig{
		Interval:     25 * time.Millisecond,
		SuspectAfter: 75 * time.Millisecond,
		DeadAfter:    150 * time.Millisecond,
	}
	n := newSimNet(t)
	a, _, _, _ := n.pair(UDPConfig{Liveness: live}, UDPConfig{Liveness: live})

	// Heartbeats alone keep the peer alive and measure the wire's RTT.
	n.run(time.Second)
	if h := a.PeerHealth()[2]; h.State != PeerAlive || h.RTTMicros != 2*n.delay.Microseconds() {
		t.Fatalf("peer 2 = %v rtt %dus, want alive and %dus", h.State, h.RTTMicros, 2*n.delay.Microseconds())
	}
	if a.Isolated() {
		t.Fatal("node with a live neighbor reports isolated")
	}
	if a.Stats().PeerSuspects.Load() != 0 {
		t.Fatal("a heartbeating peer was suspected")
	}

	// Partition: a drops all frames to and from 2. Silence is measured
	// from the last frame heard, at most one heartbeat interval (plus
	// jitter) ago.
	lastHeard := n.sched.Now() - a.PeerHealth()[2].LastHeard
	a.SetBlocked([]uint32{2})
	n.run(lastHeard + live.SuspectAfter - n.sched.Now() - 1)
	if got := a.PeerHealth()[2].State; got != PeerAlive {
		t.Fatalf("just before SuspectAfter: %v, want alive", got)
	}
	n.run(1)
	if got := a.PeerHealth()[2].State; got != PeerSuspect {
		t.Fatalf("at SuspectAfter: %v, want suspect", got)
	}
	n.run(lastHeard + live.DeadAfter - n.sched.Now())
	if got := a.PeerHealth()[2].State; got != PeerDead {
		t.Fatalf("at DeadAfter: %v, want dead", got)
	}
	if a.Stats().PeerSuspects.Load() != 1 || a.Stats().PeerDeaths.Load() != 1 {
		t.Fatalf("transition accounting: suspects=%d deaths=%d",
			a.Stats().PeerSuspects.Load(), a.Stats().PeerDeaths.Load())
	}
	if !a.Isolated() {
		t.Fatal("all neighbors dead but not isolated")
	}
	if a.Stats().PartitionDropped.Load() == 0 {
		t.Fatal("partition drops not accounted")
	}

	// Heal: the next probe exchange revives the peer. Probes toward a dead
	// peer have backed off, at most to MaxProbeBackoff (default 8×Interval)
	// plus 25% jitter.
	a.SetBlocked(nil)
	n.run(10*live.Interval + 2*n.delay)
	if got := a.PeerHealth()[2].State; got != PeerAlive {
		t.Fatalf("after heal: %v, want alive", got)
	}
	if a.Stats().PeerRecoveries.Load() != 1 {
		t.Fatalf("recoveries = %d, want 1", a.Stats().PeerRecoveries.Load())
	}
	if a.Stats().HeartbeatsSent.Load() == 0 || a.Stats().HeartbeatsRecv.Load() == 0 {
		t.Fatalf("heartbeat accounting: sent=%d recv=%d",
			a.Stats().HeartbeatsSent.Load(), a.Stats().HeartbeatsRecv.Load())
	}
}
