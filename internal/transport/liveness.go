package transport

import (
	"math/rand"
	"time"
)

// This file implements the UDP endpoint's neighbor failure detector: a
// lightweight heartbeat protocol plus a timeout classifier. Every frame
// heard from a neighbor — data, ack or heartbeat — counts as proof of
// life; in quiet periods the detector sends ping probes and expects pongs.
// Silence beyond SuspectAfter marks the peer suspect, beyond DeadAfter
// dead. Suspect and dead peers keep being probed, with exponential backoff
// plus jitter (so a whole cluster does not probe a rebooting node in
// lockstep), and any frame from the peer — including one with a fresh boot
// nonce after a crash-restart — flips it back to alive immediately.
//
// The detector deliberately lives below the diffusion layer: the paper's
// soft state would eventually stop using a dead neighbor's gradients on
// its own, but only after interest refreshes and reinforcement decay time
// out. The detector turns "stopped hearing frames" into an explicit event
// the node can react to within a couple of heartbeat intervals.

// PeerState classifies a neighbor's liveness.
type PeerState uint8

// Peer liveness states.
const (
	PeerAlive PeerState = iota
	PeerSuspect
	PeerDead
)

// String renders the state.
func (s PeerState) String() string {
	if int(s) < len(peerStateNames) {
		return peerStateNames[s]
	}
	return "unknown"
}

var peerStateNames = [...]string{"alive", "suspect", "dead"}

// PeerHealth is one neighbor's liveness snapshot.
type PeerHealth struct {
	State PeerState
	// LastHeard is how long ago the last frame from this peer arrived
	// (measured from endpoint start when nothing was ever heard).
	LastHeard time.Duration
	// RTTMicros is the most recent heartbeat round-trip time in
	// microseconds (0 until a probe has completed).
	RTTMicros int64
}

// LivenessConfig parameterizes the failure detector. The zero value of
// every field takes a default derived from Interval.
type LivenessConfig struct {
	// Interval is the heartbeat period toward an alive neighbor
	// (default 1s).
	Interval time.Duration
	// SuspectAfter is the silence that marks a peer suspect
	// (default 3×Interval).
	SuspectAfter time.Duration
	// DeadAfter is the silence that marks a peer dead (default
	// 8×Interval; must exceed SuspectAfter).
	DeadAfter time.Duration
	// MaxProbeBackoff caps the exponential probe backoff toward suspect
	// and dead peers (default 8×Interval).
	MaxProbeBackoff time.Duration
	// OnStateChange, when set, is invoked on every peer state transition,
	// after the endpoint has released its lock, from whichever goroutine
	// made the transition happen (the socket reader or the timer). A
	// single-threaded consumer posts onto its own loop.
	OnStateChange func(peer uint32, state PeerState)
}

// fill applies defaults.
func (c *LivenessConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.Interval
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 8 * c.Interval
		if c.DeadAfter <= c.SuspectAfter {
			c.DeadAfter = 2 * c.SuspectAfter
		}
	}
	if c.MaxProbeBackoff <= 0 {
		c.MaxProbeBackoff = 8 * c.Interval
	}
}

// peerLiveness is the detector's record of one neighbor, kept in the
// neighbor's table row (peers.go). Times are clock readings (offsets from
// the endpoint's start), not wall-clock instants.
type peerLiveness struct {
	state     PeerState
	lastHeard time.Duration
	nextProbe time.Duration
	backoff   time.Duration // current probe period (grows while silent)
	pingSeq   uint32        // seq of the outstanding probe, 0 when none
	pingAt    time.Duration // when it was sent
	rttMicros int64         // latest completed round trip
}

// transition is one peer state change the detector decided on; the driver
// routes it to whoever cares (udp.go, settle).
type transition struct {
	peer  uint32
	state PeerState
}

// detector is one endpoint's failure detector (engine contract:
// engine.go). It watches every row of the neighbor table.
type detector struct {
	cfg     LivenessConfig
	stats   *Stats
	rng     *rand.Rand
	tab     *peerTable
	nextSeq uint32
	// next is the earliest probe or classification deadline. Hearing from
	// a peer only moves its deadlines later, so next may run early; tick
	// recomputes it exactly.
	next time.Duration
}

// newDetector builds a detector watching tab's rows from now.
func newDetector(cfg LivenessConfig, seed int64, tab *peerTable, stats *Stats, now time.Duration) *detector {
	cfg.fill()
	d := &detector{
		cfg:   cfg,
		stats: stats,
		rng:   rand.New(rand.NewSource(seed)),
		tab:   tab,
		next:  never,
	}
	for _, id := range tab.ids {
		d.add(tab.peers[id], now)
	}
	return d
}

// nextDeadline is when the detector next needs a tick.
func (d *detector) nextDeadline() time.Duration { return d.next }

// deadline is when p next needs attention: its probe, or the silence
// threshold that would worsen its state.
func (d *detector) deadline(p *peerLiveness) time.Duration {
	at := p.nextProbe
	switch p.state {
	case PeerAlive:
		at = min(at, p.lastHeard+d.cfg.SuspectAfter)
	case PeerSuspect:
		at = min(at, p.lastHeard+d.cfg.DeadAfter)
	}
	return at
}

// tick classifies every peer and queues due probes, in ID order.
func (d *detector) tick(now time.Duration, fx *effects) {
	d.next = never
	for _, id := range d.tab.ids {
		p := &d.tab.peers[id].live
		silence := now - p.lastHeard
		want := p.state
		switch {
		case silence >= d.cfg.DeadAfter:
			want = PeerDead
		case silence >= d.cfg.SuspectAfter:
			want = PeerSuspect
		}
		// Only tick worsens a state; recovery happens in heard. A peer
		// never goes dead → suspect here.
		if want > p.state {
			if want == PeerSuspect {
				d.stats.PeerSuspects.Add(1)
			}
			if want == PeerDead {
				d.stats.PeerDeaths.Add(1)
			}
			p.state = want
			fx.transitions = append(fx.transitions, transition{id, want})
		}
		if now >= p.nextProbe {
			d.nextSeq++
			p.pingSeq = d.nextSeq
			p.pingAt = now
			fx.send(id, kindPing, p.pingSeq, nil)
			if p.state == PeerAlive {
				p.backoff = d.cfg.Interval
			} else {
				// Exponential backoff while the peer stays silent, capped.
				p.backoff *= 2
				if p.backoff > d.cfg.MaxProbeBackoff {
					p.backoff = d.cfg.MaxProbeBackoff
				}
			}
			// ±25% jitter de-synchronizes probes across the cluster.
			jitter := time.Duration(d.rng.Int63n(int64(p.backoff)/2+1)) - p.backoff/4
			p.nextProbe = now + p.backoff + jitter
		}
		d.next = min(d.next, d.deadline(p))
	}
}

// heard records proof of life from row e's peer (any well-formed frame),
// which revives a suspect or dead one.
func (d *detector) heard(e *peerEntry, now time.Duration, fx *effects) {
	p := &e.live
	p.lastHeard = now
	if p.state == PeerAlive {
		return
	}
	p.state = PeerAlive
	p.backoff = d.cfg.Interval
	p.nextProbe = now + p.backoff
	d.next = min(d.next, p.nextProbe)
	d.stats.PeerRecoveries.Add(1)
	fx.transitions = append(fx.transitions, transition{e.id, PeerAlive})
}

// add resets row e's record to freshly alive. The driver asks for it when
// a row is installed and when a promoted peer rejoins under a new boot
// nonce: either way the peer earns a full DeadAfter of grace and is probed
// at once so an RTT appears early, and no transition is reported
// (membership events cover the promotion itself).
func (d *detector) add(e *peerEntry, now time.Duration) {
	p := &e.live
	p.state = PeerAlive
	p.lastHeard = now
	p.nextProbe = now
	p.backoff = d.cfg.Interval
	d.next = min(d.next, now)
}

// forceDead marks row e's peer dead immediately, as if DeadAfter of
// silence had elapsed — the reaction to an explicit leave frame from a
// configured neighbor. Any later frame from the peer recovers it through
// heard as normal.
func (d *detector) forceDead(e *peerEntry, now time.Duration, fx *effects) {
	p := &e.live
	if p.state == PeerDead {
		return
	}
	p.state = PeerDead
	// Backdate the silence so a snapshot agrees with the state and the
	// probe path treats the peer like any other dead one.
	p.lastHeard = now - d.cfg.DeadAfter
	d.stats.PeerDeaths.Add(1)
	fx.transitions = append(fx.transitions, transition{e.id, PeerDead})
}

// pong completes an outstanding probe toward row e's peer, recording its
// round trip.
func (d *detector) pong(e *peerEntry, seq uint32, now time.Duration) {
	p := &e.live
	if seq == 0 || p.pingSeq != seq {
		return
	}
	rtt := (now - p.pingAt).Microseconds()
	p.rttMicros = rtt
	p.pingSeq = 0
	d.stats.RTTMicrosSum.Add(uint64(rtt))
	d.stats.RTTCount.Add(1)
}

// health is row e's liveness snapshot at now.
func (e *peerEntry) health(now time.Duration) PeerHealth {
	return PeerHealth{State: e.live.state, LastHeard: now - e.live.lastHeard, RTTMicros: e.live.rttMicros}
}

// snapshot returns every peer's health.
func (d *detector) snapshot(now time.Duration) map[uint32]PeerHealth {
	out := make(map[uint32]PeerHealth, len(d.tab.ids))
	for id, e := range d.tab.peers {
		out[id] = e.health(now)
	}
	return out
}

// allDead reports whether the endpoint has neighbors and every one of
// them is dead — the "isolated node" condition health checks act on.
func (d *detector) allDead() bool {
	for _, e := range d.tab.peers {
		if e.live.state != PeerDead {
			return false
		}
	}
	return len(d.tab.peers) > 0
}
