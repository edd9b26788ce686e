package transport

import (
	"cmp"
	"slices"
	"time"

	"diffusion/internal/message"
)

// This file implements the UDP endpoint's custody-transfer option: the
// link-layer half of disruption tolerance (internal/custody holds the
// durable queue, internal/core decides what to hand off and when).
// Custody frames differ from reliable unicast in one crucial way: the
// acknowledgment is sent only after the receiver has *durably* accepted
// the payload (fsync'd into its custody log), not on arrival. Combined
// with unbounded retransmission — a custody offer is never abandoned,
// only superseded — this makes the hand-off a transactional transfer of
// responsibility: at every instant, at least one node's disk vouches for
// the message.
//
//   - The sender keeps one pending offer per message ID, retransmitting
//     with capped exponential backoff for as long as the offer stands.
//     Re-offering the same ID is idempotent; re-offering it to a
//     different peer (the reinforced path moved) supersedes the old
//     offer.
//   - On a neighbor-recovery event from the failure detector, pending
//     offers toward that neighbor are re-sent immediately instead of
//     waiting out the backoff — partitions heal at detector speed.
//   - The receive side acks if and only if the Accept callback reports
//     the payload held (already-queued and recently-released duplicates
//     re-ack without re-admitting), and delivers it up only when it is
//     fresh, keeping hop-by-hop transfer exactly-once.

// CustodyOptions wires the endpoint's custody frames to the custody
// queue. Accept and Release are required; both are called with the
// endpoint's lock released (Accept by whoever handed the endpoint the
// offer, live the socket reader — it may block briefly on the journal
// fsync, which is the price of ack-after-durability).
type CustodyOptions struct {
	// Accept durably admits custody of (id, payload) offered by from.
	// held reports the payload is vouched for (ack it); fresh reports it
	// was newly admitted (deliver it up).
	Accept func(from uint32, id message.ID, payload []byte) (held, fresh bool)
	// Release reports that peer acknowledged — durably accepted — custody
	// of id, so this node's custody of it can be discharged.
	Release func(peer uint32, id message.ID)
	// RTO is the initial retransmit timeout (default 500ms); MaxRTO caps
	// the exponential backoff (default 10s). Custody tolerates long RTOs:
	// it is the partition-scale path, not the hot path.
	RTO    time.Duration
	MaxRTO time.Duration
}

func (c *CustodyOptions) fill() {
	if c.RTO <= 0 {
		c.RTO = 500 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 10 * time.Second
	}
}

// custodian is the sender half of custody transfer for one endpoint
// (engine contract: engine.go).
type custodian struct {
	cfg   CustodyOptions
	stats *Stats
	// seqs numbers offers per peer: a custody-less receiver deduplicates
	// them in a window of dupSpan numbers per sender, which offers to other
	// peers must not move past a pending one.
	seqs  map[uint32]uint32
	byID  map[message.ID]*pending // pending offers, keyed by message ID
	bySeq map[offerKey]*pending   // the same offers, keyed by peer and wire seq
	// next is the earliest retransmission. Acks only remove deadlines, so
	// it may run early; tick recomputes it exactly.
	next time.Duration
	due  []*pending // tick's and reoffer's work list, reused
}

func newCustodian(cfg CustodyOptions, stats *Stats) *custodian {
	cfg.fill()
	return &custodian{
		cfg:   cfg,
		stats: stats,
		seqs:  map[uint32]uint32{},
		byID:  map[message.ID]*pending{},
		bySeq: map[offerKey]*pending{},
		next:  never,
	}
}

// nextDeadline is when the custodian next needs a tick.
func (c *custodian) nextDeadline() time.Duration { return c.next }

// send offers custody of (id, buf) to peer; the engine keeps buf. A
// pending offer of the same ID to the same peer makes this a no-op (the
// core replays periodically; the wire must not amplify that). An offer to
// a different peer supersedes the old one — the reinforced path moved.
func (c *custodian) send(peer uint32, id message.ID, buf []byte, now time.Duration, fx *effects) {
	if f, ok := c.byID[id]; ok {
		if f.peer == peer {
			return
		}
		c.drop(f)
	}
	c.seqs[peer]++
	f := &pending{peer: peer, seq: c.seqs[peer], id: id, payload: buf, tries: 1}
	c.byID[id] = f
	c.bySeq[offerKey{peer, f.seq}] = f
	c.next = min(c.next, f.arm(now, c.cfg.RTO, c.cfg.MaxRTO))
	c.stats.CustodySent.Add(1)
	fx.send(peer, kindCustody, f.seq, buf)
}

// drop forgets a pending offer (superseded or acked).
func (c *custodian) drop(f *pending) {
	delete(c.byID, f.id)
	delete(c.bySeq, offerKey{f.peer, f.seq})
}

// collect fills the work list with the offers pick selects, in seq order
// (peer order among equal seqs).
func (c *custodian) collect(pick func(*pending) bool) []*pending {
	c.due = c.due[:0]
	for _, f := range c.bySeq {
		if pick(f) {
			c.due = append(c.due, f)
		}
	}
	slices.SortFunc(c.due, func(a, b *pending) int {
		return cmp.Or(cmp.Compare(a.seq, b.seq), cmp.Compare(a.peer, b.peer))
	})
	return c.due
}

// tick retransmits every offer whose timeout has passed: RTO doubled per
// attempt, capped at MaxRTO, never abandoned.
func (c *custodian) tick(now time.Duration, fx *effects) {
	for _, f := range c.collect(func(f *pending) bool { return f.due <= now }) {
		f.tries++
		c.retransmit(f, now, fx)
	}
	c.next = never
	for _, f := range c.bySeq {
		c.next = min(c.next, f.due)
	}
}

// retransmit puts offer f on the wire again and re-arms it.
func (c *custodian) retransmit(f *pending, now time.Duration, fx *effects) {
	c.next = min(c.next, f.arm(now, c.cfg.RTO, c.cfg.MaxRTO))
	c.stats.CustodyRetransmits.Add(1)
	fx.send(f.peer, kindCustody, f.seq, f.payload)
}

// ack completes a custody transfer: the peer durably holds the message,
// so local custody is discharged via the Release callback.
func (c *custodian) ack(peer, seq uint32, fx *effects) {
	c.stats.CustodyAcksRecv.Add(1)
	f, ok := c.bySeq[offerKey{peer, seq}]
	if !ok {
		return
	}
	c.drop(f)
	if c.cfg.Release != nil {
		fx.calls = append(fx.calls, func() { c.cfg.Release(peer, f.id) })
	}
}

// reoffer re-sends every pending offer toward peer immediately, resetting
// its backoff — the failure detector just heard from it again.
func (c *custodian) reoffer(peer uint32, now time.Duration, fx *effects) {
	for _, f := range c.collect(func(f *pending) bool { return f.peer == peer }) {
		f.tries = 1
		c.retransmit(f, now, fx)
	}
}

// dropPeer forgets every pending offer toward one peer. The custody queue
// still holds the data — nothing is released — so when the peer (or a
// replacement upstream) comes back, the core's NeighborRecovered replay
// re-offers it under fresh wire sequence numbers. Asked for when a peer
// is removed or restarts with a new boot nonce.
func (c *custodian) dropPeer(peer uint32) {
	for _, f := range c.bySeq {
		if f.peer == peer {
			c.drop(f)
		}
	}
}

// offerKey names a pending offer on the wire: its peer and that peer's seq.
type offerKey struct{ peer, seq uint32 }

// pending returns the number of outstanding custody offers.
func (c *custodian) pending() int { return len(c.bySeq) }
