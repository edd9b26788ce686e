package core

import (
	"slices"

	"diffusion/internal/custody"
	"diffusion/internal/message"
	"diffusion/internal/telemetry"
)

// Custody-aware forwarding: the disruption-tolerance layer over the
// gradient machinery (internal/custody holds the queue and the durable
// store). With Config.Custody set, a data message that cannot make
// forward progress — no matching interest entry, no gradient, no
// reinforced next hop — is taken into custody instead of dropped, and
// replayed into the gradient path once the soft state reforms: on
// positive reinforcement, on a neighbor-recovery event from the failure
// detector, at every housekeeping pass, and (in the live daemon) after a
// warm restart reloads the custody store.
//
// Two transfer modes share the one queue:
//
//   - With a custody-capable link (the UDP transport's kindCustody
//     frames), plain data moves hop-by-hop under custody transfer: the
//     sender keeps the item queued until the receiver durably accepts
//     and acknowledges it, so a crash or partition anywhere between two
//     custodians loses nothing. Local delivery at a sink discharges
//     custody.
//   - Without one (the simulator's radio MAC), custody is store-and-
//     carry with in-band acknowledgment: every node that transmits a data
//     message holds it in its custody queue, every node that receives one
//     durably admits it and confirms with a CustodyAck message, and only
//     that ack releases the sender's copy. Stuck or unacknowledged items
//     are re-offered as unicast exploratory data with their original
//     message IDs each housekeeping pass; the receiver refloods them
//     along its own gradients. Duplicate suppression at every hop keeps
//     delivery exactly-once; mobile relays (the ferry experiment) chain
//     this into multi-hop store-and-forward across partitions.

// CustodyLink is the optional link-layer surface for hop-by-hop custody
// transfer. The UDP transport implements it; the send must eventually be
// acknowledged by the peer's durable accept, with the transport
// retransmitting and re-offering on neighbor recovery until then.
type CustodyLink interface {
	SendCustody(dst uint32, id message.ID, payload []byte) error
}

// custodyOn reports whether custody forwarding is enabled.
func (n *Node) custodyOn() bool { return n.cfg.Custody != nil }

// carryMode reports store-and-carry custody: enabled, but with no
// custody-capable link layer, so hop-by-hop transfer is confirmed by
// in-band CustodyAck messages instead of the transport's durable-accept
// acknowledgment.
func (n *Node) carryMode() bool { return n.custodyOn() && n.custodyLink == nil }

// sendCustodyAck confirms custody of id to peer: this node (or its
// downstream chain) now vouches for the message, so peer may release its
// copy. Best-effort — a lost ack just means peer re-offers and is
// re-acknowledged.
func (n *Node) sendCustodyAck(id message.ID, peer message.NodeID) {
	n.transmit(&message.Message{
		Class:   message.CustodyAck,
		ID:      id,
		PrevHop: selfID(n),
		NextHop: peer,
	})
}

// custodyAdmit durably admits a data message received from a neighbor and
// acknowledges the sender. Withholding the ack when the queue is full is
// the backpressure path: the sender keeps custody and re-offers later.
func (n *Node) custodyAdmit(m *message.Message) {
	held, fresh := n.cfg.Custody.Accept(m.ID, m.Marshal())
	if fresh {
		n.Stats.CustodyCaptured++
	}
	if held {
		n.span(telemetry.CustodyAccept, telemetry.LayerCustody, m, uint32(m.PrevHop), telemetry.DropNone)
		n.sendCustodyAck(m.ID, m.PrevHop)
	}
}

// custodyReoffer handles a duplicate data message unicast to this node in
// store-and-carry mode: a custody re-offer, meaning the sender never got
// an ack for it. Re-acknowledge whenever this node vouches for the
// message — it holds it, its released-ID memory shows the downstream
// chain accepted it, or a local sink already consumed it (the seen-cache
// hit proves delivery happened). A fresh admission covers the remaining
// case: the earlier copy was seen but dropped under queue-full
// backpressure that has since cleared.
func (n *Node) custodyReoffer(m *message.Message) {
	entries := n.matchingEntries(m.Attrs)
	sink := false
	for _, e := range entries {
		if len(e.localSubs) > 0 {
			sink = true
			break
		}
	}
	n.putEntryBuf(entries)
	if sink {
		n.sendCustodyAck(m.ID, m.PrevHop)
		return
	}
	n.custodyAdmit(m)
}

// noteStaleHop records a purged gradient's neighbor as a last-known next
// hop for custody replay (see interestEntry.staleHops). Only custody
// needs the memory; without it the purge is total, as before.
func (n *Node) noteStaleHop(e *interestEntry, nb message.NodeID) {
	if !n.custodyOn() {
		return
	}
	if e.staleHops == nil {
		e.staleHops = map[message.NodeID]bool{}
	}
	e.staleHops[nb] = true
}

// custodyCapture takes local custody of a data message with no forward
// path. Returns true when the message is now (or already was) vouched
// for, so the caller can treat it as handled rather than dropped.
func (n *Node) custodyCapture(m *message.Message) bool {
	if !n.custodyOn() || !m.IsData() {
		return false
	}
	held, fresh := n.cfg.Custody.Accept(m.ID, m.Marshal())
	if fresh {
		n.Stats.CustodyCaptured++
	}
	if held {
		n.span(telemetry.CustodyAccept, telemetry.LayerCustody, m, n.ID(), telemetry.DropNone)
	}
	return held
}

// custodyDischarge releases custody of id after local delivery at a sink
// (the message reached its destination; this node no longer vouches for
// it).
func (n *Node) custodyDischarge(id message.ID) {
	if n.custodyOn() {
		n.cfg.Custody.Release(id)
	}
}

// ReplayCustody walks the custody queue and re-sends every item that has
// a forward path again. Safe to call at any time from the node's
// executor; it is invoked automatically from housekeeping, reinforcement
// arrival and NeighborRecovered. Items that still have no path stay
// queued for the next trigger.
func (n *Node) ReplayCustody() {
	if !n.custodyOn() || n.detached {
		return
	}
	for _, it := range n.cfg.Custody.Items() {
		if n.replayItem(it) {
			return
		}
	}
}

// replayItem gives one custody item a chance to move. stop=true aborts the
// whole pass (link backpressure: the MAC queue that refused this frame
// would refuse the rest too, and stopping paces a large drain to the
// link's rate instead of turning drop-tail into churn).
func (n *Node) replayItem(it custody.Item) (stop bool) {
	m, err := message.Unmarshal(it.Payload)
	if err != nil {
		// Poison item (torn write that survived CRC by miracle, or a
		// version skew): custody cannot do anything with it.
		n.cfg.Custody.Release(it.ID)
		return false
	}
	m.ID = it.ID
	// Never replay toward the hop the message arrived from: in
	// store-and-carry mode that neighbor's duplicate cache would
	// swallow the copy (a silent loss after the optimistic release),
	// and in custody-transfer mode bouncing it straight back wastes a
	// durable round-trip the sender just paid for. Data captured at
	// its own source carries PrevHop == self, which never matches a
	// gradient.
	avoid := m.PrevHop
	now := n.cfg.Clock.Now()
	entries := n.matchingEntries(m.Attrs)
	defer n.putEntryBuf(entries)

	// The role may have moved here since capture (warm restart):
	// deliver locally and discharge. A seen-cache hit means the message
	// already went through this node's delivery path in this session —
	// the flood copy of an origin-captured exploratory, typically — so
	// discharge without a second delivery. Delivering marks the ID seen:
	// a replay pass that wins the race against the transport's pending
	// deliverUp dispatch for the same frame must not let coreData
	// deliver it a second time.
	for _, e := range entries {
		if len(e.localSubs) > 0 {
			if n.firstSighting(m.ID, now) {
				n.deliverLocal(m)
			}
			n.custodyDischarge(it.ID)
			break
		}
	}
	if !n.cfg.Custody.Has(it.ID) {
		return false
	}

	// Collect live forwarding options, deterministically ordered.
	var reinforced, gradients []message.NodeID
	seenNb := map[message.NodeID]bool{}
	for _, e := range entries {
		for nb, g := range e.gradients {
			if nb == avoid || seenNb[nb] {
				continue
			}
			seenNb[nb] = true
			gradients = append(gradients, nb)
			if g.reinforced(now) {
				reinforced = append(reinforced, nb)
			}
		}
	}
	sortAscending(reinforced)
	sortAscending(gradients)

	switch {
	case n.custodyLink != nil:
		// Hop-by-hop custody transfer: hand the item to the first
		// reinforced next hop as plain data. transmit() routes it
		// through the custody link, and the item stays queued until
		// the peer's durable accept releases it; re-invocations before
		// the ack are deduplicated by the transport.
		targets := reinforced
		if len(targets) == 0 {
			// No reinforced hop (the path decayed, or this node was never
			// on one): walk the item strictly SINKWARD along plain
			// gradients, using the per-gradient hop distances the interest
			// flood refreshes. This is how stranded data escapes the
			// duplicate-cache moat a fault leaves behind — every node that
			// saw the flood while the sink was cut off drops a re-flood,
			// but a custody handoff rides the transport's durable
			// accept/ack path, and a holder that already saw the ID keeps
			// it queued and walks it onward (a prior holder re-holds: the
			// transport accepts link offers with AcceptOffer, which
			// re-admits released IDs rather than blind-acking them, so a
			// revisit under changed topology moves the item instead of
			// vanishing it). Strict descent against the entry's
			// current-epoch distance (freshHops, consistent fleet-wide
			// within one interest flood) plus the avoid rule keeps each
			// pass cycle-free and the copy count low. Churn can
			// transiently leave no strictly-closer hop; the item just
			// waits out the next interest refresh. Candidates are tried
			// closest-first: a
			// stale gradient toward a peer the transport no longer knows
			// must not wedge the item behind a failed send.
			type cand struct {
				nb   message.NodeID
				hops uint8
			}
			var cands []cand
			candSeen := map[message.NodeID]bool{}
			for _, e := range entries {
				if !e.hasFreshHops {
					continue
				}
				for nb, g := range e.gradients {
					if nb == avoid || !g.hasHops || g.hops >= e.freshHops || candSeen[nb] {
						continue
					}
					candSeen[nb] = true
					cands = append(cands, cand{nb, g.hops})
				}
			}
			slices.SortFunc(cands, func(a, b cand) int {
				if a.hops != b.hops {
					return int(a.hops) - int(b.hops)
				}
				return int(a.nb) - int(b.nb)
			})
			for _, c := range cands {
				targets = append(targets, c.nb)
			}
			if len(targets) == 0 {
				return false
			}
		}
		for _, nb := range targets {
			out := m.Clone()
			out.Class = message.Data
			out.PrevHop = selfID(n)
			out.NextHop = nb
			n.markSeen(out.ID)
			n.span(telemetry.CustodyReplay, telemetry.LayerCustody, out, uint32(out.NextHop), telemetry.DropNone)
			if n.transmit(out) == nil {
				n.cfg.Custody.NoteReplay()
				break
			}
		}
	default:
		// Store-and-carry: re-offer to one live next hop — reinforced
		// if available — as unicast exploratory data (the receiver
		// refloods it along its own gradients), keeping custody until
		// that hop's CustodyAck arrives; until then every replay
		// trigger re-offers it again. Unicast matters twice over: only
		// the addressed peer processes the offer, so an overhearing
		// third node's released-ID memory cannot acknowledge — and so
		// discharge — data it no longer holds; and the offer escapes
		// the duplicate-suppression drop that would silently swallow a
		// re-flooded broadcast at nodes that saw the ID before.
		targets := gradients
		if len(reinforced) > 0 {
			targets = reinforced
		}
		if len(targets) == 0 {
			// No live gradient: fall back on stale gradient memory,
			// the last known next hops toward a sink before the soft
			// state decayed or the neighbor died. A wrong guess costs
			// one unanswered frame (no ack, item retained), while a
			// right one drains custody at the instant of a contact —
			// without this, draining depends on an interest making it
			// back across the partition first, one lost frame away
			// from stranding data for a whole contact cycle.
			var stale []message.NodeID
			for _, e := range entries {
				for nb := range e.staleHops {
					if nb != avoid && !seenNb[nb] {
						seenNb[nb] = true
						stale = append(stale, nb)
					}
				}
			}
			sortAscending(stale)
			targets = stale
		}
		if len(targets) == 0 {
			return false
		}
		out := m.Clone()
		out.Class = message.ExploratoryData
		out.PrevHop = selfID(n)
		out.NextHop = targets[0]
		n.markSeen(out.ID)
		n.span(telemetry.CustodyReplay, telemetry.LayerCustody, out, uint32(out.NextHop), telemetry.DropNone)
		if n.transmit(out) != nil {
			return true
		}
		n.cfg.Custody.NoteReplay()
	}
	return false
}

// NeighborRecovered tells the diffusion core that the failure detector
// heard from peer again (or that a mobile contact came into range). It is
// NeighborDead's inverse: where a death purges state toward the peer,
// a recovery re-primes state *through* it without waiting out the
// refresh intervals:
//
//   - every cached interest entry is re-offered to the peer as a unicast
//     interest, rebuilding its gradient toward us immediately (the
//     peer's own jittered re-flood then propagates it outward) — a sink
//     behind a healed partition becomes reachable within a forwarding
//     jitter instead of an interest interval;
//   - active subscriptions re-originate their interest floods promptly,
//     pulling data through the recovered link;
//   - every publication's next data message is exploratory, re-priming
//     reinforcement across the healed path;
//   - custodial data is replayed (ReplayCustody) now that paths may
//     exist again.
//
// Call it from the executor that owns the node, exactly like
// NeighborDead.
func (n *Node) NeighborRecovered(peer uint32) {
	if n.detached {
		return
	}
	n.Stats.NeighborRecoveries++
	nb := message.NodeID(peer)
	for _, e := range n.entriesInOrder() {
		if len(e.localSubs) > 0 {
			continue // our own subscriptions re-flood below
		}
		m := &message.Message{
			Class:    message.Interest,
			ID:       n.nextID(),
			PrevHop:  selfID(n),
			NextHop:  nb,
			HopCount: e.hops,
			Attrs:    e.attrs.Clone(),
		}
		n.markSeen(m.ID)
		n.transmit(m)
	}
	for _, p := range n.pubs {
		p.sentAny = false
	}
	for _, s := range n.subs {
		if s.passive || s.local {
			continue
		}
		if s.refresh != nil {
			s.refresh.Cancel()
		}
		n.armRefresh(s)
	}
	n.ReplayCustody()
}
