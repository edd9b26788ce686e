package transport

import (
	"slices"
	"time"

	"diffusion/internal/message"
)

// This file implements the UDP endpoint's custody-transfer option: the
// link-layer half of disruption tolerance (internal/custody holds the
// durable queue, internal/core decides what to hand off and when). A
// custody offer is a reliable frame with kindCustodyFlag set, in the
// reliable engine's per-peer sequence space, window and span bound
// (reliable.go). A custody-capable receiver acks it, with a held ack, only
// after it has *durably* accepted the payload (fsync'd into its custody
// log). Combined with unbounded retransmission — an offer is never
// abandoned or shed, only superseded — this makes the hand-off a
// transactional transfer of responsibility: at every instant, at least one
// node's disk vouches for the message.
//
//   - The engine's ID index keeps one standing offer per message ID.
//     Re-offering it to the same peer is a no-op; to a different peer (the
//     reinforced path moved), it supersedes the old offer.
//   - When the failure detector hears a neighbor again, in-flight offers
//     toward it are re-sent at once — partitions heal at detector speed.
//   - The receiver acks if and only if Accept reports the payload held, and
//     delivers it up only when it is fresh: Accept is the deduplication, so
//     offers bypass the duplicate window.
//   - A receiver without custody takes an offer as a plain reliable frame,
//     and one with custody plain-acks an offer it cannot parse. A plain ack
//     parks the offer: out of the window, not retransmitted, not released,
//     but standing in the ID index (CustodyPending counts it, a re-offer is
//     a no-op) until superseded or the peer is dropped — removed, or heard
//     under a new boot nonce (reliable.go, forget).
//
// An unacknowledged offer holds a window slot whether it waits on a
// partitioned peer or on a full custodian, so reliable frames toward that
// peer wait behind it: backpressure, not loss. Offers do not count against
// QueueLimit, so they never make the reliable queue shed.

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

// offer queues custody of (id, payload) toward row e's peer, copying
// payload as send does. A standing offer of the same ID to the same peer makes this a
// no-op (the core replays periodically; the wire must not amplify that).
// An offer to a different peer supersedes the old one — the reinforced
// path moved.
func (r *reliable) offer(e *peerEntry, id message.ID, payload []byte, now time.Duration, fx *effects) {
	if to, ok := r.byID[id]; ok {
		if to == e.id {
			return
		}
		r.withdraw(r.tab.peers[to], id, now, fx)
	}
	r.byID[id] = e.id
	r.enqueue(e, pending{kind: kindReliable | kindCustodyFlag, id: id}, payload, now, fx)
}

// withdraw drops the standing offer of id toward row e's peer: from the
// window or the queue, or, parked, from the ID index alone.
func (r *reliable) withdraw(e *peerEntry, id message.ID, now time.Duration, fx *effects) {
	delete(r.byID, id)
	p := &e.rel
	is := func(f pending) bool { return f.custody() && f.id == id }
	if i := slices.IndexFunc(p.inflight, is); i >= 0 {
		p.offers--
		r.recycle(p.inflight[i].payload)
		p.inflight = slices.Delete(p.inflight, i, i+1)
		r.pump(e, now, fx)
	} else if i := slices.IndexFunc(p.queue, is); i >= 0 {
		p.offers--
		r.recycle(p.queue[i].payload)
		p.queue = slices.Delete(p.queue, i, i+1)
	}
}

// release discharges the offer of id, which peer durably holds: the ID
// index lets go of it and the Release callback fires.
func (r *reliable) release(peer uint32, id message.ID, fx *effects) {
	delete(r.byID, id)
	if cb := r.cus.Release; cb != nil {
		fx.calls = append(fx.calls, func() { cb(peer, id) })
	}
}

// reoffer re-sends every in-flight offer toward row e's peer immediately,
// resetting its backoff — the failure detector just heard from it again.
func (r *reliable) reoffer(e *peerEntry, now time.Duration, fx *effects) {
	for i := range e.rel.inflight {
		if f := &e.rel.inflight[i]; f.custody() {
			f.tries = 1
			r.retransmit(e, f, now, fx)
		}
	}
}
