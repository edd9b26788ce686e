package transport

import (
	"slices"
	"time"

	"diffusion/internal/message"
)

// This file implements the UDP endpoint's reliable-unicast option:
// per-neighbor ack/retransmit for unicast sends. Broadcast stays
// fire-and-forget — flooding is already redundant by design — but the
// paper's reinforced paths concentrate all high-rate data onto single
// unicast hops, so one lossy link multiplies into end-to-end loss the
// soft-state machinery is too slow to repair. Reliable unicast closes
// that gap hop by hop:
//
//   - every reliable frame carries a per-neighbor sequence number and is
//     retransmitted on an ack timeout with capped exponential backoff,
//     up to MaxRetries attempts;
//   - the per-neighbor send queue is bounded. When it overflows,
//     interest and exploratory traffic (the soft state that will be
//     re-originated anyway) is dropped before reinforced data and
//     reinforcements;
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
	// QueueLimit bounds in-flight plus queued frames per neighbor
	// (default 64); beyond it the shedding policy applies.
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

// relPeer is the sender-side state toward one neighbor.
type relPeer struct {
	nextSeq  uint32
	inflight []pending // on the wire, unacked, in send order
	queue    []pending // waiting for window room
	// retransmits counts this neighbor's ack-timeout resends, for the
	// per-peer metrics series (Stats.Retransmits keeps the endpoint sum).
	retransmits uint64
}

// reliable is the sender half of reliable unicast for one endpoint
// (engine contract: engine.go).
type reliable struct {
	cfg   ReliableConfig
	stats *Stats
	peers map[uint32]*relPeer
	order idSet
	// next is the earliest ack timeout. Acks only remove deadlines, so it
	// may run early; tick recomputes it exactly.
	next time.Duration
	// spare holds the buffers of frames acked, abandoned or shed — at most
	// Window of them — for send to copy the next payloads into. The driver
	// encodes every frame before it releases its lock, so once the engine
	// lets go of a buffer nothing else reads it.
	spare [][]byte
}

func newReliable(cfg ReliableConfig, stats *Stats) *reliable {
	cfg.fill()
	return &reliable{cfg: cfg, stats: stats, peers: map[uint32]*relPeer{}, next: never}
}

// nextDeadline is when the sender next needs a tick.
func (r *reliable) nextDeadline() time.Duration { return r.next }

// send enqueues a copy of payload, which it only borrows, toward peer,
// applying the overload-shedding policy, and pumps the window. The copy
// goes into the last spare buffer, or a new one if that is too small.
// Shedding is not an error: the link-layer contract is best effort, and the
// diffusion layer's own refresh machinery recovers what overload drops.
func (r *reliable) send(peer uint32, payload []byte, now time.Duration, fx *effects) {
	p, ok := r.peers[peer]
	if !ok {
		p = &relPeer{}
		r.peers[peer] = p
		r.order.add(peer)
	}
	if len(p.inflight)+len(p.queue) >= r.cfg.QueueLimit && !r.shed(p, payload) {
		return // the new frame itself was shed
	}
	var buf []byte
	if n := len(r.spare); n > 0 {
		buf, r.spare = r.spare[n-1], r.spare[:n-1]
	}
	p.nextSeq++
	p.queue = append(p.queue, pending{peer: peer, seq: p.nextSeq, payload: append(buf[:0], payload...)})
	r.pump(p, now, fx)
}

// recycle puts a frame's buffer on the spare list, if the list has room.
func (r *reliable) recycle(buf []byte) {
	if len(r.spare) < r.cfg.Window {
		r.spare = append(r.spare, buf)
	}
}

// shed makes room in a full queue. It prefers dropping a queued sheddable
// frame (oldest first); failing that, an incoming sheddable frame; failing
// that, the oldest queued frame of any class. In-flight frames are never
// shed — they are already on the wire. Returns false when the incoming
// frame is the one dropped.
func (r *reliable) shed(p *relPeer, incoming []byte) bool {
	r.stats.QueueDrops.Add(1)
	for i, f := range p.queue {
		if sheddable(f.payload) {
			r.recycle(f.payload)
			p.queue = slices.Delete(p.queue, i, i+1)
			return true
		}
	}
	if sheddable(incoming) || len(p.queue) == 0 {
		return false
	}
	r.recycle(p.queue[0].payload)
	p.queue = slices.Delete(p.queue, 0, 1)
	return true
}

// pump moves queued frames into the in-flight window, putting each on the
// wire and setting its ack timeout. It stops short of a frame dupSpan
// sequence numbers past the oldest unacked one: the receiver would call
// that one stale, after acking it.
func (r *reliable) pump(p *relPeer, now time.Duration, fx *effects) {
	for len(p.inflight) < r.cfg.Window && len(p.queue) > 0 &&
		(len(p.inflight) == 0 || p.queue[0].seq-p.inflight[0].seq < dupSpan) {
		f := p.queue[0]
		p.queue = slices.Delete(p.queue, 0, 1) // shifts down: the queue keeps its capacity
		f.tries = 1
		r.next = min(r.next, f.arm(now, r.cfg.RTO, r.cfg.MaxRTO))
		p.inflight = append(p.inflight, f)
		fx.send(f.peer, kindReliable, f.seq, f.payload)
	}
}

// tick retransmits every frame whose ack timeout has passed, abandons
// those already retransmitted MaxRetries times, and refills the windows
// that frees — peers in ID order, frames in send order.
func (r *reliable) tick(now time.Duration, fx *effects) {
	r.next = never
	for _, id := range r.order {
		p := r.peers[id]
		kept := p.inflight[:0]
		for _, f := range p.inflight {
			if f.due <= now {
				if f.tries > r.cfg.MaxRetries {
					r.stats.ReliableDrops.Add(1)
					r.recycle(f.payload)
					continue
				}
				f.tries++
				p.retransmits++
				r.stats.Retransmits.Add(1)
				f.arm(now, r.cfg.RTO, r.cfg.MaxRTO)
				fx.send(id, kindReliable, f.seq, f.payload)
			}
			kept = append(kept, f)
		}
		clear(p.inflight[len(kept):]) // release abandoned payloads
		p.inflight = kept
		r.pump(p, now, fx)
		for i := range p.inflight {
			r.next = min(r.next, p.inflight[i].due)
		}
	}
}

// ack completes an in-flight frame and pumps the window.
func (r *reliable) ack(peer, seq uint32, now time.Duration, fx *effects) {
	r.stats.AcksRecv.Add(1)
	p, ok := r.peers[peer]
	if !ok {
		return
	}
	for i := range p.inflight {
		if p.inflight[i].seq == seq {
			r.recycle(p.inflight[i].payload)
			p.inflight = slices.Delete(p.inflight, i, i+1)
			r.pump(p, now, fx)
			return
		}
	}
}

// perPeerRetransmits snapshots every neighbor's retransmission count.
func (r *reliable) perPeerRetransmits() map[uint32]uint64 {
	out := make(map[uint32]uint64, len(r.peers))
	for id, p := range r.peers {
		out[id] = p.retransmits
	}
	return out
}

// dropPeer discards all sender-side state toward one peer: in-flight
// frames, queue, sequence space. Asked for when a peer is removed or
// re-announces under a new boot nonce — the restarted peer's receive
// windows reset with its boot, so retransmitting old frames at it would
// only produce spurious deliveries.
func (r *reliable) dropPeer(peer uint32) {
	delete(r.peers, peer)
	r.order.remove(peer)
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
