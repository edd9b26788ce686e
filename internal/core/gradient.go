package core

import (
	"cmp"
	"slices"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/match"
	"diffusion/internal/message"
	"diffusion/internal/telemetry"
)

// interestEntry is the per-interest state a task-aware node keeps: the
// interest's attributes and a record per neighbor it refers to, which holds
// the gradient toward each neighbor that sent the interest (paper: "each
// sensor node that receives an interest remembers which neighbor or
// neighbors sent it that interest; to each such neighbor, it sets up a
// gradient").
type interestEntry struct {
	attrs attr.Vec
	hash  uint64
	// nbs holds one record per neighbor the entry refers to, in ascending
	// ID, so every walk over it runs in one order and a lookup is a binary
	// search.
	nbs []nbRecord
	// sinks are this node's subscription groups fed by the entry: the node
	// is a sink for the interest.
	sinks []*subGroup
	// lastExpFrom is the neighbor that delivered the most recent new
	// exploratory data for this entry; reinforcement propagates to it.
	lastExpFrom message.NodeID
	hasExpFrom  bool
	// reinforcedUpstream is the neighbor we last sent positive
	// reinforcement to (toward the source).
	reinforcedUpstream    message.NodeID
	hasReinforcedUpstream bool
	// lastReinforcedID suppresses repeat reinforcements for the same
	// exploratory message.
	lastReinforcedID message.ID
	// dupSince opens the current window of duplicate counting
	// (nbRecord.dups) for dampened negative reinforcement.
	dupSince time.Duration
	// freshHops is this node's distance from the sink measured within the
	// newest interest flood epoch only (distinguished by interest message
	// ID, reset each refresh). Unlike hops below — a lifetime minimum that
	// can only shrink — it tracks the current topology, so custody's
	// sinkward walk can make strict-descent comparisons against it after
	// churn has lengthened paths. Within one epoch every node's value
	// derives from the same flood, so the descent is consistent
	// fleet-wide and the walk cannot cycle.
	freshHops    uint8
	freshHopsID  message.ID
	hasFreshHops bool
	// hops is the smallest hop count at which this interest has reached
	// us (as it would leave this node), so a recovered neighbor can be
	// re-offered the interest with an honest TTL budget.
	hops    uint8
	hasHops bool
	// slot is the entry's handle in the gradient match index.
	slot match.Handle
}

// nbRecord is an entry's state toward one neighbor. It lives while live
// says so; the next compact drops it after that.
type nbRecord struct {
	nb message.NodeID
	// The gradient toward nb (toward a sink), present while grad is set.
	// Reinforced, it carries high-rate data until reinforcedUntil, so a
	// high-rate path fades unless positive reinforcement refreshes it.
	expires         time.Duration
	reinforcedUntil time.Duration
	// hops is nb's own distance from the sink, the HopCount of the last
	// interest it forwarded here: custody replay walks stranded items
	// strictly sinkward by it when no reinforced path exists.
	hops    uint8
	hasHops bool
	grad    bool
	// stale marks nb as a last known next hop toward a sink: its gradient
	// decayed or died while custody was on. Store-and-carry replay falls
	// back on stale hops when no gradient is live, so a custodian drains at
	// the next contact; a re-offer toward an absent neighbor goes unacked
	// and the item stays. Never cleared.
	stale bool
	// dups counts duplicate plain data from nb in the entry's current
	// negative-reinforcement window.
	dups uint8
}

// live reports whether r still holds state, or the entry's reinforcement
// or exploratory trace names its neighbor (so NeighborDead finds the entry).
func (e *interestEntry) live(r *nbRecord) bool {
	return r.grad || r.stale || r.dups > 0 ||
		e.hasReinforcedUpstream && e.reinforcedUpstream == r.nb ||
		e.hasExpFrom && e.lastExpFrom == r.nb
}

func byNb(r nbRecord, nb message.NodeID) int { return cmp.Compare(r.nb, nb) }

// find returns e's record for nb, or nil.
func (e *interestEntry) find(nb message.NodeID) *nbRecord {
	if i, ok := slices.BinarySearchFunc(e.nbs, nb, byNb); ok {
		return &e.nbs[i]
	}
	return nil
}

// record returns e's record for nb, inserting an empty one if there is
// none. The pointer is good until the next insert.
func (e *interestEntry) record(nb message.NodeID) *nbRecord {
	i, ok := slices.BinarySearchFunc(e.nbs, nb, byNb)
	if !ok {
		e.nbs = slices.Insert(e.nbs, i, nbRecord{nb: nb})
	}
	return &e.nbs[i]
}

// compact drops e's dead records, keeping the array.
func (e *interestEntry) compact() {
	e.nbs = slices.DeleteFunc(e.nbs, func(r nbRecord) bool { return !e.live(&r) })
}

// gradient returns e's gradient toward nb, setting one up if there is none.
func (n *Node) gradient(e *interestEntry, nb message.NodeID) *nbRecord {
	r := e.record(nb)
	if !r.grad {
		r.grad = true
		n.Stats.GradientsCreated++
		n.noteEntryEmptiness(e)
	}
	return r
}

// dropGradient ends e's gradient r, expired or toward a dead neighbor;
// with custody on, the neighbor stays on as a stale hop.
func (n *Node) dropGradient(e *interestEntry, r *nbRecord) {
	r.grad, r.expires, r.reinforcedUntil, r.hops, r.hasHops = false, 0, 0, 0, false
	r.stale = r.stale || n.custodyOn()
	n.Stats.GradientsExpired++
	n.noteEntryEmptiness(e)
}

// reinforced reports whether r's gradient carries high-rate data at now.
func (r *nbRecord) reinforced(now time.Duration) bool {
	return r.grad && now < r.reinforcedUntil
}

// hasGradient reports whether any neighbor holds a gradient on this entry.
func (e *interestEntry) hasGradient() bool {
	return slices.ContainsFunc(e.nbs, func(r nbRecord) bool { return r.grad })
}

// hasReinforcedDownstream reports whether any neighbor holds a reinforced
// gradient on this entry (someone downstream wants high-rate data).
func (e *interestEntry) hasReinforcedDownstream(now time.Duration) bool {
	return slices.ContainsFunc(e.nbs, func(r nbRecord) bool { return r.reinforced(now) })
}

// entryFor finds or creates the entry for attrs, copying values too if lent.
func (n *Node) entryFor(attrs attr.Vec, lent bool) *interestEntry {
	h := attrs.Hash()
	if e, ok := n.entries[h]; ok {
		return e
	}
	// The records slice grows at its first insert: a broker-scale node
	// carries one entry per local subscription, and most of those never
	// see a gradient or a duplicate.
	e := &interestEntry{hash: h}
	if lent {
		e.attrs, _ = attrs.Own(nil, nil)
	} else {
		e.attrs = attrs.Clone()
	}
	e.slot = n.midx.entries.Add(e.attrs, h)
	put(&n.entries, h, e)
	n.noteEntryEmptiness(e)
	return e
}

// lookupEntry returns the entry with exactly these attributes, if any.
func (n *Node) lookupEntry(attrs attr.Vec) (*interestEntry, bool) {
	e, ok := n.entries[attrs.Hash()]
	return e, ok
}

// ReinforcedUpstream returns the neighbor this node last positively
// reinforced (toward the data source) for the interest matching attrs,
// trying both the given attributes and their on-the-wire interest form.
// Fault-injection harnesses walk this hop-by-hop from the sink to locate
// the reinforced relay chain.
func (n *Node) ReinforcedUpstream(attrs attr.Vec) (uint32, bool) {
	for _, v := range []attr.Vec{attrs, attrs.With(interestClass(attrs)...)} {
		if e, ok := n.lookupEntry(v); ok && e.hasReinforcedUpstream {
			return uint32(e.reinforcedUpstream), true
		}
	}
	return 0, false
}

// matchingEntries returns entries whose interest attributes two-way match
// the given data attributes, ascending by hash (the same canonical order
// the old full-table scan produced). The result comes from the node's
// snapshot pool; callers must release it with putEntryBuf, and may hold it
// across re-entrant core calls — nested lookups draw distinct buffers.
func (n *Node) matchingEntries(data attr.Vec) []*interestEntry {
	tags := n.midx.getTags()
	tags = n.midx.entries.Lookup(data, tags)
	slices.Sort(tags) // tags are entry hashes
	out := n.getEntryBuf()
	for _, h := range tags {
		if e, ok := n.entries[h]; ok {
			out = append(out, e)
		}
	}
	n.midx.putTags(tags)
	return out
}

// processCore is the diffusion core: it runs after the filter chain.
func (n *Node) processCore(m *message.Message) {
	local := m.PrevHop == selfID(n)
	switch m.Class {
	case message.Interest:
		n.coreInterest(m, local)
	case message.Data, message.ExploratoryData:
		n.coreData(m, local)
	case message.PositiveReinforcement:
		n.coreReinforce(m)
	case message.NegativeReinforcement:
		n.coreNegReinforce(m)
	}
}

// coreInterest handles an interest message (local origination or from a
// neighbor).
func (n *Node) coreInterest(m *message.Message, local bool) {
	e := n.entryFor(m.Attrs, !local)
	now := n.cfg.Clock.Now()

	if local {
		// Local origination: every group with this interest form and an
		// active member is a sink of the entry.
		for _, g := range n.groups[e.hash] {
			if g.has(subActive) {
				n.addSink(e, g)
			}
		}
	} else {
		// Gradient setup/refresh toward the sending neighbor. Every copy
		// of the interest refreshes its sender's gradient, even if the
		// message ID was already seen via another neighbor.
		g := n.gradient(e, m.PrevHop)
		g.expires = now + n.cfg.GradientLifetime
		g.hops = m.HopCount
		g.hasHops = true
		if h := m.HopCount + 1; !e.hasFreshHops || e.freshHopsID != m.ID || h < e.freshHops {
			e.freshHops = h
			e.freshHopsID = m.ID
			e.hasFreshHops = true
		}
		if h := m.HopCount + 1; !e.hasHops || h < e.hops {
			e.hops = h
			e.hasHops = true
		}
	}

	if !n.firstSighting(m.ID, now) {
		n.Stats.Duplicates++
		n.span(telemetry.Drop, telemetry.LayerCore, m, uint32(m.PrevHop), telemetry.DropDuplicate)
		return
	}
	n.Stats.InterestsSeen++

	// Local delivery to passive interest taps ("subscribe for
	// subscriptions"). Locally originated interests deliver too: a tap
	// and a sink may share a node, and the tap's formals cannot match the
	// sink's own formal-only interest, so there is no self-delivery.
	n.deliverLocal(m)

	// Re-flood with jitter. TTL bounds the flood. Filters that take over
	// forwarding (ProcessNoForward) suppress this step.
	if m.HopCount >= n.cfg.TTL || n.suppressForward {
		if m.HopCount >= n.cfg.TTL {
			n.span(telemetry.Drop, telemetry.LayerCore, m, uint32(m.PrevHop), telemetry.DropTTL)
		}
		return
	}
	n.forwardLater(m)
}

// interestClass is what a subscription's on-the-wire interest form appends
// to its attributes: the implicit class, unless they carry a class actual.
func interestClass(attrs attr.Vec) attr.Vec {
	if _, ok := attrs.FindActual(attr.KeyClass); ok {
		return nil
	}
	return attr.Vec{attr.ClassIsInterest()}
}

// coreData handles (exploratory) data.
func (n *Node) coreData(m *message.Message, local bool) {
	now := n.cfg.Clock.Now()
	if !n.firstSighting(m.ID, now) {
		n.Stats.Duplicates++
		n.span(telemetry.Drop, telemetry.LayerCore, m, uint32(m.PrevHop), telemetry.DropDuplicate)
		// A duplicate unicast to us in store-and-carry mode is a custody
		// re-offer (the sender never got its ack): re-acknowledge instead
		// of treating it as a redundant path — negative reinforcement of
		// a custody retry would tear down the very gradient the drain
		// needs.
		if n.carryMode() && !local && m.NextHop == selfID(n) {
			n.custodyReoffer(m)
			return
		}
		// A duplicate non-exploratory message means a redundant reinforced
		// path is feeding us: negatively reinforce the sender (3.1:
		// "negative reinforcements suppress loops or duplicate paths").
		// The reaction is dampened — it takes repeated duplicates from
		// the same neighbor within a short window — so an occasional
		// flood-remnant duplicate does not tear down a path other
		// sources still depend on.
		if m.Class == message.Data && !local && !n.cfg.DisableNegRF {
			n.noteDuplicateData(m)
		}
		// A duplicate arriving where custody of the same ID is still held
		// is a custody replay racing the original: the flood copy beat the
		// custody walk here. If this node is a sink for the message, the
		// seen-hit proves the application already got it — the custody
		// entry has served its purpose, so release it rather than vouch
		// forever for delivered data.
		if n.custodyOn() && n.cfg.Custody.Has(m.ID) {
			entries := n.matchingEntries(m.Attrs)
			for _, e := range entries {
				if len(e.sinks) > 0 {
					n.custodyDischarge(m.ID)
					break
				}
			}
			n.putEntryBuf(entries)
		}
		return
	}

	// Store-and-carry custody: receiving a data message makes this node a
	// custodian. Admit it durably and confirm to the sender, which keeps
	// its own copy until the ack arrives; a full queue withholds the ack
	// (backpressure — the sender re-offers later, nothing is lost).
	if n.carryMode() && !local {
		n.custodyAdmit(m)
	}

	entries := n.matchingEntries(m.Attrs)
	defer n.putEntryBuf(entries)
	if len(entries) == 0 && !(m.Class == message.ExploratoryData && isPush(m.Attrs)) {
		// No gradient state: nothing to do ("data is sent only where
		// interests have established gradients"). One-phase-push
		// exploratory data is the exception: it floods without interest
		// state, and reinforcements install the state afterwards. With
		// custody enabled this is the disruption case — the soft state
		// decayed under us — so the data is held instead of dropped.
		if n.custodyCapture(m) {
			return
		}
		n.Stats.DataSuppressed++
		n.span(telemetry.Drop, telemetry.LayerCore, m, uint32(m.PrevHop), telemetry.DropNoGradient)
		return
	}
	n.span(telemetry.Match, telemetry.LayerCore, m, uint32(m.PrevHop), telemetry.DropNone)

	// Data loops back to co-located subscriptions as well — the daemon
	// delivers a local publication to a local matching subscription, as
	// the reference implementation does.
	n.deliverLocal(m)

	isSinkFor := false
	anyForward := false
	// Reinforced next hops, ascending and deduplicated across entries;
	// rarely more than one or two, so they live on the stack.
	var targetBuf [8]message.NodeID
	targets := targetBuf[:0]
	if m.Class == message.ExploratoryData && !local {
		put(&n.expFrom, m.ID, m.PrevHop)
	}
	for _, e := range entries {
		if m.Class == message.ExploratoryData && !local {
			e.lastExpFrom = m.PrevHop
			e.hasExpFrom = true
			e.record(m.PrevHop)
		}
		if len(e.sinks) > 0 {
			isSinkFor = true
		}
		for _, r := range e.nbs {
			if !r.grad || r.nb == m.PrevHop {
				continue // never send data back where it came from
			}
			if m.Class == message.ExploratoryData {
				anyForward = true
			} else if r.reinforced(now) {
				targets, _ = insertNb(targets, r.nb)
			}
		}
	}
	// Data arriving at its sink has reached its destination: any custody
	// this node holds for it (a durable transport accept) is discharged.
	if isSinkFor {
		n.custodyDischarge(m.ID)
	}

	if m.Class == message.ExploratoryData && isPush(m.Attrs) {
		// Push exploratory floods to everyone, interest state or not.
		anyForward = true
	}
	switch m.Class {
	case message.ExploratoryData:
		if anyForward && m.HopCount < n.cfg.TTL && !n.suppressForward {
			// Exploratory data floods along all gradients; one broadcast
			// reaches every gradient neighbor (the traffic model in 6.1
			// counts it as flooded from each node).
			n.forwardLater(m)
		} else if anyForward && m.HopCount >= n.cfg.TTL {
			n.span(telemetry.Drop, telemetry.LayerCore, m, uint32(m.PrevHop), telemetry.DropTTL)
		}
		// Sink behaviour: reinforce the neighbor that delivered the first
		// copy of this exploratory message. Intermediate nodes with live
		// reinforced downstream demand refresh their existing upstream
		// when it delivered this exploratory first — hop-local
		// maintenance so one lost reinforcement does not break the path —
		// but never start new branches: path creation and migration stay
		// sink-driven (via the expFrom trace), which keeps redundant
		// parallel paths from accumulating.
		if !local {
			for _, e := range entries {
				refresh := e.hasReinforcedDownstream(now) &&
					e.hasReinforcedUpstream && e.reinforcedUpstream == m.PrevHop
				if len(e.sinks) > 0 || refresh {
					n.reinforceUpstream(e, m.PrevHop, m.ID, m.Flow)
				}
			}
		}
		// Exploratory data that can go nowhere from here (gradients all
		// point back where it came from, or decayed to nothing) and has
		// no sink here either is the other disruption case: hold it.
		if !anyForward && !isSinkFor && !n.custodyCapture(m) {
			n.span(telemetry.Drop, telemetry.LayerCore, m, uint32(m.PrevHop), telemetry.DropNoPath)
		}
		// In custody-transfer mode the origin also vouches for exploratory
		// data it could flood: the broadcast is fire-and-forget — no hop
		// acknowledges it — and under membership churn whole stretches of a
		// stream travel in this class (every NeighborRecovered re-primes the
		// publication), so a partition boundary would swallow them silently.
		// The item is replayed later as plain data down a reinforced
		// gradient and handed custodian-to-custodian; if the flood copy did
		// arrive, the sink's duplicate arrival discharges the chain instead
		// of delivering twice.
		if local && anyForward && !isSinkFor && n.custodyLink != nil {
			n.custodyCapture(m)
		}
	case message.Data:
		if local && len(targets) == 0 {
			// Locally originated data with no reinforced path yet: it is
			// dropped, as in the paper ("subsequent messages are sent
			// only on reinforced paths").
			n.Stats.DataNoPath++
		}
		if len(targets) == 0 && !isSinkFor && !n.custodyCapture(m) {
			// Reinforced-class data with nowhere to go: the reinforced
			// path decayed (partition) or never reformed after a restart.
			// Custody holds it until reinforcement returns; without custody
			// this hop is where the flow dies.
			n.span(telemetry.Drop, telemetry.LayerCore, m, uint32(m.PrevHop), telemetry.DropNoPath)
		}
		for _, nb := range targets {
			// The forward differs from m in its header only; Attrs is
			// immutable and shared.
			out := *m
			out.HopCount++
			out.PrevHop = selfID(n)
			out.NextHop = nb
			// Same congestion rule as the exploratory forward: a frame
			// the link refuses goes into custody, not the floor.
			if n.transmit(&out) != nil {
				n.custodyCapture(&out)
			}
		}
	}
}

// reinforceUpstream sends positive reinforcement for entry e to neighbor
// nb, at most once per exploratory message. The reinforcement carries the
// ID of the exploratory data being reinforced, so each upstream node can
// retrace that message's exact arrival path via its expFrom record. It
// inherits the exploratory message's trace flow, so a sampled flow's
// timeline shows the reinforcement chain it triggered.
func (n *Node) reinforceUpstream(e *interestEntry, nb message.NodeID, cause message.ID, flow uint16) {
	if e.lastReinforcedID == cause {
		return
	}
	e.lastReinforcedID = cause
	e.reinforcedUpstream = nb
	e.hasReinforcedUpstream = true
	e.record(nb)
	n.transmit(&message.Message{
		Class:   message.PositiveReinforcement,
		ID:      cause,
		PrevHop: selfID(n),
		NextHop: nb,
		Flow:    flow,
		Attrs:   e.attrs,
	})
}

// isPush reports whether attrs carry the one-phase-push marker.
func isPush(attrs attr.Vec) bool {
	a, ok := attrs.FindActual(attr.KeyAlgorithm)
	return ok && a.Val.Numeric() && int32(a.Val.AsFloat()) == attr.AlgorithmPush
}

// coreReinforce handles positive reinforcement from a downstream neighbor:
// mark its gradient reinforced and propagate toward the data source. In
// one-phase push there is no interest flood, so the reinforcement itself
// installs the entry at each hop (reinforcements carry the sink's
// subscription attributes).
func (n *Node) coreReinforce(m *message.Message) {
	e, ok := n.lookupEntry(m.Attrs)
	if !ok {
		e = n.entryFor(m.Attrs, true)
	}
	now := n.cfg.Clock.Now()
	g := n.gradient(e, m.PrevHop)
	// Reinforcement is live evidence of demand: it refreshes the gradient
	// lifetime too. In one-phase push this is the only refresh there is
	// (no interests ever flood).
	g.expires = now + n.cfg.GradientLifetime
	g.reinforcedUntil = now + n.cfg.ReinforcementTimeout
	// Propagate along the exact path the reinforced exploratory message
	// took (m.ID names it). Fall back to the most recent exploratory
	// arrival for this entry when the per-message record has expired. The
	// data's origin has no record of an upstream and stops the chain.
	if from, ok := n.expFrom[m.ID]; ok && from != m.PrevHop {
		n.reinforceUpstream(e, from, m.ID, m.Flow)
	} else if !ok && e.hasExpFrom && e.lastExpFrom != m.PrevHop {
		n.reinforceUpstream(e, e.lastExpFrom, m.ID, m.Flow)
	}
	// A fresh reinforced gradient is exactly what stuck custodial data has
	// been waiting for.
	n.ReplayCustody()
}

// coreNegReinforce handles negative reinforcement: the sending neighbor no
// longer wants high-rate data from us.
func (n *Node) coreNegReinforce(m *message.Message) {
	e, ok := n.lookupEntry(m.Attrs)
	if !ok {
		return
	}
	if r := e.find(m.PrevHop); r != nil {
		r.reinforcedUntil = 0
	}
	// If nobody downstream wants high-rate data and we are not a sink,
	// propagate the teardown upstream (3.1: "this negative reinforcement
	// propagates neighbor-to-neighbor, removing gradients").
	if len(e.sinks) > 0 {
		return
	}
	if e.hasReinforcedDownstream(n.cfg.Clock.Now()) {
		return
	}
	if e.hasReinforcedUpstream {
		up := e.reinforcedUpstream
		e.hasReinforcedUpstream = false
		n.transmit(&message.Message{
			Class:   message.NegativeReinforcement,
			ID:      n.nextID(),
			PrevHop: selfID(n),
			NextHop: up,
			Attrs:   e.attrs,
		})
		n.Stats.NegReinforcements++
	}
}

// negRFThreshold and negRFWindow dampen duplicate-triggered negative
// reinforcement: it takes this many duplicates from one neighbor within
// the window to trigger a teardown.
const (
	negRFThreshold = 3
	negRFWindow    = 15 * time.Second
)

// noteDuplicateData records a duplicate plain-data reception and sends
// negative reinforcement to the sender once duplicates persist.
func (n *Node) noteDuplicateData(m *message.Message) {
	entries := n.matchingEntries(m.Attrs)
	defer n.putEntryBuf(entries)
	if len(entries) == 0 {
		return
	}
	e := entries[0]
	now := n.cfg.Clock.Now()
	if now-e.dupSince > negRFWindow {
		e.dupSince = now
		for i := range e.nbs {
			e.nbs[i].dups = 0
		}
	}
	r := e.record(m.PrevHop)
	if r.dups++; r.dups < negRFThreshold {
		return
	}
	r.dups = 0
	n.transmit(&message.Message{
		Class:   message.NegativeReinforcement,
		ID:      n.nextID(),
		PrevHop: selfID(n),
		NextHop: m.PrevHop,
		Flow:    m.Flow,
		Attrs:   e.attrs,
	})
	n.Stats.NegReinforcements++
}

// deliverLocal invokes the callbacks of every subscription matching m, in
// ascending handle order (the order the old full-table walk produced). Each
// borrows m itself, usually the node's receive or origination message,
// whose attributes are cleared once the reception or origination returns.
func (n *Node) deliverLocal(m *message.Message) {
	tags := n.midx.getTags()
	tags = n.midx.subs.Lookup(m.Attrs, tags)
	if len(tags) == 0 {
		n.midx.putTags(tags)
		return
	}
	// Resolve each matched group to its members before any callback runs:
	// this is the snapshot the pre-index delivery loop took, so a callback
	// that unsubscribes another matched subscription does not suppress its
	// delivery mid-message.
	subs := n.getSubBuf()
	for _, t := range tags {
		for _, s := range n.groupsByTag[t].members {
			if s.cb != nil {
				subs = append(subs, s)
			}
		}
	}
	n.midx.putTags(tags)
	sortSubsByHandle(subs)
	delivered := false
	for _, s := range subs {
		n.Stats.LocalDeliveries++
		delivered = true
		s.cb(m)
	}
	n.putSubBuf(subs)
	if delivered {
		n.span(telemetry.Deliver, telemetry.LayerCore, m, n.ID(), telemetry.DropNone)
	}
}
