package core

import (
	"diffusion/internal/message"
)

// NeighborDead tells the diffusion core that a link-layer failure detector
// declared peer dead. The paper's soft state would eventually stop using
// the dead neighbor on its own — gradients expire without interest
// refreshes, reinforcement decays — but only after multiples of the
// refresh intervals. This call collapses that window to the detector's
// timeout by purging every piece of protocol state that routes traffic
// through the dead peer and re-priming the discovery machinery:
//
//   - gradients toward the peer are dropped, so plain data stops being
//     unicast into a black hole;
//   - reinforcement and exploratory-arrival traces naming the peer are
//     cleared, so the next reinforcement retraces a live path instead of
//     the dead one;
//   - every publication's next data message is exploratory again, flooding
//     along surviving gradients to re-prime alternate paths;
//   - every active subscription re-originates its interest promptly (the
//     usual initial jitter applies), rebuilding gradients around the hole.
//
// Call it from the same executor that owns the node (the rt.Loop in live
// deployments). NeighborRecovered (custody.go) is the inverse call: a
// recovered peer's own traffic would rebuild state on its own within the
// refresh intervals, but the recovery hook collapses that window too and
// replays any custodial data waiting on the healed link.
func (n *Node) NeighborDead(peer uint32) {
	if n.detached {
		return
	}
	nb := message.NodeID(peer)
	n.Stats.NeighborDeaths++
	// Only entries with a record for the dead neighbor can hold state
	// naming it (see interestEntry.live), and a binary search of each
	// entry's records finds it: a neighbor dies rarely, so a walk of the
	// table costs less than an index kept up on every record. The same
	// walk collects every empty entry, touched by this neighbor or not.
	// The purge of each entry is independent of the others and changes no
	// entry but the one in hand, which a range may delete, so the walk
	// needs no snapshot and no order.
	for _, e := range n.entries {
		if r := e.find(nb); r != nil {
			if r.grad {
				n.dropGradient(e, r)
			}
			r.dups = 0
			if e.hasReinforcedUpstream && e.reinforcedUpstream == nb {
				e.hasReinforcedUpstream = false
				// Forget the reinforcement cause too: the next exploratory
				// arrival must be allowed to reinforce a fresh upstream even
				// if it reuses an ID this entry already acted on.
				e.lastReinforcedID = message.ID{}
			}
			if e.hasExpFrom && e.lastExpFrom == nb {
				e.hasExpFrom = false
			}
			e.compact()
		}
		n.collect(e)
	}
	for id, from := range n.expFrom {
		if from == nb {
			delete(n.expFrom, id)
		}
	}
	for _, p := range n.pubs {
		// Next Send per publication goes exploratory, flooding along the
		// surviving gradients.
		p.sentAny = false
	}
	n.rearm()
}
