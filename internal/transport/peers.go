package transport

import (
	"math/rand"
	"net"
	"net/netip"
	"slices"
)

// This file is the endpoint's neighbor table and the impairment applied on
// the way out of it (contract: engine.go). The engines name frames by peer
// ID; admit turns those into frames for the wire, or into counted drops.
// It holds nothing back, so the timer never ticks it.

// peerEntry is one row of the live neighbor table, and everything the
// endpoint keeps about that neighbor: its address, whether the operator
// pinned it (configured) or discovery promoted it, per-peer payload traffic
// counters (announce/heartbeat chatter is excluded, so the counters
// identify which links actually carry data), the boot nonce its frames last
// carried, the receive-side duplicate window, the failure detector's record
// and the reliable sender's state. Deleting the row deletes all of it, so
// every per-peer table has the neighbor table's bound.
type peerEntry struct {
	id         uint32
	addr       netip.AddrPort
	configured bool
	dataRecv   uint64
	dataSent   uint64
	boot       uint32
	booted     bool         // boot was read off a frame
	dup        dupWindow    // reliable frames, and offers when this node has no custody
	live       peerLiveness // the failure detector's record (liveness.go)
	rel        relPeer      // reliable frames and custody offers toward it (reliable.go)
}

// addrPort is a's value form, IPv4 as IPv4 whatever form a holds it in.
func addrPort(a *net.UDPAddr) netip.AddrPort {
	ap := a.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// peerTable is the neighbor table plus the runtime impairment — blocked
// peers and injected loss — every outgoing frame passes. Static without
// discovery; discovery adds and removes rows at runtime.
type peerTable struct {
	peers   map[uint32]*peerEntry
	ids     idSet // the table's IDs in order: every walk of the rows
	rng     *rand.Rand
	loss    float64
	blocked map[uint32]bool
}

// put installs or re-addresses a row and returns it.
func (t *peerTable) put(id uint32, addr netip.AddrPort, configured bool) *peerEntry {
	e, ok := t.peers[id]
	if ok {
		e.addr = addr
		return e
	}
	e = &peerEntry{id: id, addr: addr, configured: configured}
	t.peers[id] = e
	t.ids.add(id)
	return e
}

// drop removes a discovered row and reports whether it did; configured
// rows are pinned.
func (t *peerTable) drop(id uint32) bool {
	e, ok := t.peers[id]
	if !ok || e.configured {
		return false
	}
	delete(t.peers, id)
	t.ids.remove(id)
	return true
}

// idSet is a sorted set of link IDs: the order the table's rows are
// walked in.
type idSet []uint32

func (s *idSet) add(id uint32) {
	if i, ok := slices.BinarySearch(*s, id); !ok {
		*s = slices.Insert(*s, i, id)
	}
}

func (s *idSet) remove(id uint32) {
	if i, ok := slices.BinarySearch(*s, id); ok {
		*s = slices.Delete(*s, i, i+1)
	}
}

// admit is the single egress point: data, reliable frames,
// retransmissions, acks, heartbeats and membership frames all pass through
// it, so a partition or loss ramp affects every frame kind, exactly like
// a real bad link. It rewrites fx's new frames to what should be written
// now, dropping frames to peers no longer in the table, to blocked peers
// and to the injected loss, in that order.
func (t *peerTable) admit(fx *effects, stats *Stats) {
	kept := fx.done
	for i := fx.done; i < fx.n; i++ {
		f := *fx.at(i)
		if !f.addr.IsValid() {
			e := t.peers[f.peer]
			if e == nil {
				continue
			}
			f.addr = e.addr
			if carriesMessage(f.kind) {
				e.dataSent++
			}
		}
		// A seed address has no ID yet (peer 0), so no partition can name it.
		if f.peer != 0 && t.blocked[f.peer] {
			stats.PartitionDropped.Add(1)
			continue
		}
		if t.loss > 0 && t.rng.Float64() < t.loss {
			stats.LossInjected.Add(1)
			continue
		}
		switch f.kind {
		case kindPing, kindPong:
			stats.HeartbeatsSent.Add(1)
		case kindAck:
			if !f.offerAck {
				stats.AcksSent.Add(1)
			}
		case kindAck | kindCustodyFlag:
			stats.CustodyAcksSent.Add(1)
		}
		*fx.at(kept) = f
		kept++
	}
	fx.truncate(kept)
}
