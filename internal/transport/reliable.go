package transport

import (
	"slices"
	"time"

	"diffusion/internal/message"
)

// This file implements the UDP endpoint's acknowledged-transfer engine:
// per-neighbor ack/retransmit for unicast sends and for custody offers,
// which are reliable frames with kindCustodyFlag set (custody.go).
// Broadcast stays fire-and-forget — flooding is already redundant by
// design — but the paper's reinforced paths concentrate all high-rate data
// onto single unicast hops, so one lossy link multiplies into end-to-end
// loss the soft-state machinery is too slow to repair. Reliable unicast
// closes that gap hop by hop:
//
//   - every frame carries a per-neighbor sequence number, one space for
//     both kinds, and is retransmitted on an ack timeout with capped
//     exponential backoff: a reliable frame up to MaxRetries times, an
//     offer until its peer acks it;
//   - the per-neighbor send queue is bounded. When it overflows,
//     interest and exploratory traffic (the soft state that will be
//     re-originated anyway) is dropped before reinforced data and
//     reinforcements. Custody offers are neither shed nor counted against
//     the bound: the custody queue bounds them;
//   - the receive side suppresses duplicates created by retransmission
//     with a per-neighbor sliding window keyed on the sender's boot
//     nonce, so a restarted neighbor's fresh sequence space is not
//     mistaken for replays.

// ReliableConfig parameterizes reliable unicast. Zero fields take
// defaults.
type ReliableConfig struct {
	// RTO is the initial ack timeout before the first retransmission
	// (default 200ms).
	RTO time.Duration
	// MaxRTO caps the exponential retransmit backoff (default 3s).
	MaxRTO time.Duration
	// MaxRetries is how many retransmissions are attempted before a frame
	// is abandoned (default 5; the failure detector will usually declare
	// the peer dead around the same time).
	MaxRetries int
	// Window is the maximum number of unacked frames in flight per
	// neighbor (default 16, at most 64).
	Window int
	// QueueLimit bounds in-flight plus queued reliable frames per
	// neighbor (default 64); beyond it the shedding policy applies.
	// Custody offers do not count against it.
	QueueLimit int
}

// fill applies defaults.
func (c *ReliableConfig) fill() {
	if c.RTO <= 0 {
		c.RTO = 200 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = 3 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	c.Window = min(c.Window, dupSpan)
	if c.QueueLimit < c.Window {
		c.QueueLimit = 64
		if c.QueueLimit < c.Window {
			c.QueueLimit = 4 * c.Window
		}
	}
}

// sheddable reports whether a queued payload may be dropped under
// overload: interests and exploratory data are periodically re-originated
// soft state, so losing one costs a refresh interval, not data. The class
// is the payload's leading byte (message.Marshal's layout).
func sheddable(payload []byte) bool {
	cls, ok := message.PeekClass(payload)
	if !ok {
		return true
	}
	switch cls {
	case message.Interest, message.ExploratoryData:
		return true
	}
	return false
}

// relPeer is the sender-side state toward one neighbor, kept in the
// neighbor's table row (peers.go). Its sequence space has started once
// nextSeq is non-zero.
type relPeer struct {
	nextSeq  uint32
	inflight []pending // on the wire, unacked, in send order
	queue    []pending // waiting for window room
	offers   int       // custody offers in inflight and queue, outside QueueLimit
	// retransmits counts this neighbor's reliable-frame ack-timeout
	// resends, for the per-peer metrics series (Stats.Retransmits keeps the
	// endpoint sum).
	retransmits uint64
}

// reliable is the sender half of reliable unicast and custody offers for
// one endpoint (engine contract: engine.go).
type reliable struct {
	cfg ReliableConfig
	// unicast is set when Send goes through the engine (UDPConfig.Reliable);
	// without it the engine carries custody offers alone.
	unicast bool
	cus     *CustodyOptions // nil without custody
	stats   *Stats
	tab     *peerTable
	// byID is every standing custody offer — in flight, queued or parked —
	// by message ID: the peer it is toward.
	byID map[message.ID]uint32
	// next is the earliest ack timeout. Acks only remove deadlines, so it
	// may run early; tick recomputes it exactly.
	next time.Duration
	// spare holds the buffers of frames acked, abandoned, shed or withdrawn —
	// at most QueueLimit, a full queue's worth — for the next payloads to be
	// copied into. The driver encodes every frame before it releases its
	// lock, so once the engine lets go of a buffer nothing else reads it.
	spare [][]byte
}

func newReliable(cfg ReliableConfig, tab *peerTable, stats *Stats) *reliable {
	cfg.fill()
	return &reliable{cfg: cfg, stats: stats, tab: tab, byID: map[message.ID]uint32{}, next: never}
}

// nextDeadline is when the sender next needs a tick.
func (r *reliable) nextDeadline() time.Duration { return r.next }

// send enqueues a reliable frame of payload toward row e's peer.
func (r *reliable) send(e *peerEntry, payload []byte, now time.Duration, fx *effects) {
	r.enqueue(e, pending{kind: kindReliable}, payload, now, fx)
}

// enqueue queues frame f toward row e's peer with a copy of payload, which
// it only borrows, applying the overload-shedding policy to a reliable
// frame, and pumps the window. The copy goes into the last spare buffer, or
// a new one if that is too small. Shedding is not an error: the link-layer
// contract is best effort, and the diffusion layer's own refresh machinery
// recovers what overload drops.
func (r *reliable) enqueue(e *peerEntry, f pending, payload []byte, now time.Duration, fx *effects) {
	p := &e.rel
	if f.custody() {
		p.offers++
	} else if len(p.inflight)+len(p.queue)-p.offers >= r.cfg.QueueLimit && !r.shed(p, payload) {
		return // the new frame itself was shed
	}
	var buf []byte
	if n := len(r.spare); n > 0 {
		buf, r.spare = r.spare[n-1], r.spare[:n-1]
	}
	p.nextSeq++
	f.seq, f.payload = p.nextSeq, append(buf[:0], payload...)
	p.queue = append(p.queue, f)
	r.pump(e, now, fx)
}

// recycle puts a frame's buffer on the spare list, if the list has room.
func (r *reliable) recycle(buf []byte) {
	if len(r.spare) < r.cfg.QueueLimit {
		r.spare = append(r.spare, buf)
	}
}

// shed makes room in a full queue. It prefers dropping a queued sheddable
// frame (oldest first); failing that, an incoming sheddable frame; failing
// that, the oldest queued reliable frame of any class. In-flight frames
// are never shed — they are already on the wire — and neither are custody
// offers. Returns false when the incoming frame is the one dropped.
func (r *reliable) shed(p *relPeer, incoming []byte) bool {
	r.stats.QueueDrops.Add(1)
	i := slices.IndexFunc(p.queue, func(f pending) bool { return !f.custody() && sheddable(f.payload) })
	if i < 0 && !sheddable(incoming) {
		i = slices.IndexFunc(p.queue, func(f pending) bool { return !f.custody() })
	}
	if i < 0 {
		return false
	}
	r.recycle(p.queue[i].payload)
	p.queue = slices.Delete(p.queue, i, i+1)
	return true
}

// pump moves row e's queued frames into its in-flight window, putting each
// on the wire and setting its ack timeout. It stops short of a frame dupSpan
// sequence numbers past the oldest unacked one: the receiver would call
// that one stale, after acking it.
func (r *reliable) pump(e *peerEntry, now time.Duration, fx *effects) {
	p := &e.rel
	for len(p.inflight) < r.cfg.Window && len(p.queue) > 0 &&
		(len(p.inflight) == 0 || p.queue[0].seq-p.inflight[0].seq < dupSpan) {
		f := p.queue[0]
		p.queue = slices.Delete(p.queue, 0, 1) // shifts down: the queue keeps its capacity
		f.tries = 1
		r.arm(&f, now)
		p.inflight = append(p.inflight, f)
		if f.custody() {
			r.stats.CustodySent.Add(1)
		}
		fx.send(e.id, f.kind, f.seq, f.payload)
	}
}

// arm schedules f's next retransmission — its kind's RTO doubled per
// attempt so far, capped at its MaxRTO.
func (r *reliable) arm(f *pending, now time.Duration) {
	rto, maxRTO := r.cfg.RTO, r.cfg.MaxRTO
	if f.custody() {
		rto, maxRTO = r.cus.RTO, r.cus.MaxRTO
	}
	d := rto << (f.tries - 1)
	if d > maxRTO || d <= 0 {
		d = maxRTO
	}
	f.due = now + d
	r.next = min(r.next, f.due)
}

// tick retransmits every frame whose ack timeout has passed, abandons
// reliable frames already retransmitted MaxRetries times, and refills the
// windows that frees — peers in ID order, frames in send order.
func (r *reliable) tick(now time.Duration, fx *effects) {
	r.next = never
	for _, id := range r.tab.ids {
		e := r.tab.peers[id]
		p := &e.rel
		kept := p.inflight[:0]
		for _, f := range p.inflight {
			if f.due <= now {
				if !f.custody() && f.tries > r.cfg.MaxRetries {
					r.stats.ReliableDrops.Add(1)
					r.recycle(f.payload)
					continue
				}
				f.tries++
				r.retransmit(e, &f, now, fx)
			}
			kept = append(kept, f)
		}
		clear(p.inflight[len(kept):]) // release abandoned payloads
		p.inflight = kept
		r.pump(e, now, fx)
		for i := range p.inflight {
			r.next = min(r.next, p.inflight[i].due)
		}
	}
}

// retransmit puts in-flight frame f toward row e's peer on the wire again
// and re-arms it.
func (r *reliable) retransmit(e *peerEntry, f *pending, now time.Duration, fx *effects) {
	if f.custody() {
		r.stats.CustodyRetransmits.Add(1)
	} else {
		e.rel.retransmits++
		r.stats.Retransmits.Add(1)
	}
	r.arm(f, now)
	fx.send(e.id, f.kind, f.seq, f.payload)
}

// ack completes the in-flight frame seq toward row e's peer and pumps the
// window. A held ack discharges a custody offer; a plain one parks it
// (custody.go). A plain ack matching nothing in flight counts as a reliable
// frame's.
func (r *reliable) ack(e *peerEntry, seq uint32, held bool, now time.Duration, fx *effects) {
	p := &e.rel
	i := slices.IndexFunc(p.inflight, func(f pending) bool { return f.seq == seq })
	offer := i >= 0 && p.inflight[i].custody()
	switch {
	case held && r.cus != nil:
		r.stats.CustodyAcksRecv.Add(1)
	case !held && r.unicast && !offer:
		r.stats.AcksRecv.Add(1)
	}
	if i < 0 {
		return
	}
	if offer {
		p.offers--
		if held {
			r.release(e.id, p.inflight[i].id, fx)
		}
	}
	r.recycle(p.inflight[i].payload)
	p.inflight = slices.Delete(p.inflight, i, i+1)
	r.pump(e, now, fx)
}

// perPeerRetransmits snapshots the retransmission count toward every
// neighbor whose sequence space has started.
func (r *reliable) perPeerRetransmits() map[uint32]uint64 {
	out := map[uint32]uint64{}
	for id, e := range r.tab.peers {
		if e.rel.nextSeq > 0 {
			out[id] = e.rel.retransmits
		}
	}
	return out
}

// forget discards all sender-side state toward row e's peer: in-flight
// frames, queue, sequence space, standing custody offers. Asked for when a
// peer is removed or is heard under a new boot nonce — the restarted
// peer's receive windows reset with its boot, so retransmitting old frames
// at it would only produce spurious deliveries. The custody queue still
// holds the offers' data — nothing is released — so the core's
// NeighborRecovered replay re-offers it under fresh sequence numbers.
func (r *reliable) forget(e *peerEntry) {
	e.rel = relPeer{}
	for id, to := range r.byID {
		if to == e.id {
			delete(r.byID, id)
		}
	}
}

// dupSpan is how far below the highest sequence number seen a dupWindow
// still tells a first sighting from a duplicate.
const dupSpan = 64

// dupWindow is the receive-side duplicate-suppression state toward one
// neighbor: a 64-entry sliding bitmap below the highest sequence seen,
// keyed on the sender's boot nonce. It lives in the neighbor's table row
// (peers.go), so it goes when the neighbor does.
type dupWindow struct {
	boot uint32
	max  uint32
	mask uint64 // bit k set ⇒ seq (max-1-k) was seen
	init bool
}

// fresh reports whether (boot, seq) is a first sighting, updating the
// window. A changed boot nonce resets the window: the neighbor restarted
// and its sequence space started over.
func (w *dupWindow) fresh(boot, seq uint32) bool {
	if !w.init || w.boot != boot {
		w.init = true
		w.boot = boot
		w.max = seq
		w.mask = 0
		return true
	}
	switch {
	case seq == w.max:
		return false
	case seq > w.max:
		shift := uint64(seq - w.max)
		if shift >= 64 {
			w.mask = 0
		} else {
			w.mask = w.mask<<shift | 1<<(shift-1)
		}
		w.max = seq
		return true
	default:
		d := uint64(w.max - seq)
		if d > dupSpan {
			// Older than the window: a stale replay beyond the span the
			// sender keeps (Stats.refused counts it apart).
			return false
		}
		bit := uint64(1) << (d - 1)
		if w.mask&bit != 0 {
			return false
		}
		w.mask |= bit
		return true
	}
}
