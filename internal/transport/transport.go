// Package transport provides live link layers for the diffusion stack:
// implementations of core.Link that move marshalled diffusion messages
// between real processes (UDP, udp.go) or between in-process nodes on
// goroutines (Mesh, mesh.go), in contrast to internal/mac which models the
// paper's radio inside the simulator.
//
// Both transports share the same framing, neighbor-table broadcast
// semantics, per-packet telemetry accounting, and optional injected loss,
// so a live run can be parity-tested against the simulated radio's loss
// models (internal/radio) without real packet drops. Delivery is best effort and unordered, exactly the service the
// diffusion core was designed for: duplicate suppression, exploratory
// flooding and reinforcement already assume a lossy link.
//
// On top of that baseline the UDP endpoint offers what the paper's
// soft-state repair needs in real deployments, each a link engine written
// to one contract (engine.go) — a state machine stepped with the time and
// a frame, holding no lock, goroutine, clock or socket of its own:
//
//   - a heartbeat failure detector (liveness.go) that classifies each
//     neighbor alive → suspect → dead, so the diffusion layer can stop
//     using gradients toward dead peers instead of waiting them out;
//   - reliable unicast (reliable.go): per-neighbor ack/retransmit with
//     capped exponential backoff, a bounded send queue that sheds
//     exploratory/interest traffic before reinforced data, and duplicate
//     suppression on receive. A custody offer (custody.go) is a reliable
//     frame with one flag: acknowledged only after a durable accept, never
//     abandoned or shed;
//   - membership (discovery.go): seeds, gossip, a degree-capped neighbor
//     table that changes at runtime.
//
// The endpoint (udp.go) drives them: one lock around every entry, one
// timer at the earliest engine deadline, one goroutine reading the socket.
// Frames are written and user code — Deliver, the liveness, membership and
// custody callbacks — is called only with the lock released, from
// whichever goroutine made the entry: the caller of Send, the socket
// reader, the timer. Callers that feed a single-threaded core.Node post
// the upcalls onto the node's rt.Loop; cmd/diffnode wires this up. An
// entry — one Send, one timer tick, one received datagram — writes one
// datagram per destination, not one per frame (the bundle, below). A
// caller with a batch of sends to make — core.Node, once per loop wake-up —
// brackets it with Cork and Uncork, and the batch shares those datagrams. A
// caller that corks at all corks around every reception it is handed, so
// the acks of what it was handed wait for its Uncork and share them too. The
// driver over a virtual clock and an in-memory wire is what the
// package's protocol tests run on (simnet_test.go).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"diffusion/internal/message"
	"diffusion/internal/telemetry"
)

// Broadcast is the link-layer broadcast destination, aliased from the
// message package (the value core.Broadcast resolves to).
const Broadcast = uint32(message.Broadcast)

// Deliver is the reception upcall: one payload from a neighbor, owned by
// the callee — the transport copied it out of what it received and never
// touches it again. On both transports the payload is a capacity-clipped
// window on a slab (the UDP reader's, or the sending Mesh link's): an
// append to it reallocates rather than reach the next payload, and keeping
// it keeps that whole slab (slabSize bytes, or a longer datagram alone)
// alive. A transport calls it holding no lock of its own, from the
// goroutine the datagram arrived on.
type Deliver func(from uint32, payload []byte)

// slabSize is how much one slab holds: a link allocates once per slabSize
// bytes it copies for Deliver, not once per payload.
const slabSize = 16 << 10

// slab is where a link copies what it hands to Deliver. copyOf appends b
// and returns it as a capacity-clipped window, starting a new slab when b
// does not fit; b longer than a slab is cloned on its own, unzeroed, and
// the slab kept. Nothing below len is written again, so a window is the
// callee's for as long as it keeps it, and the collector frees a slab once
// no window on it is left.
type slab []byte

func (s *slab) copyOf(b []byte) []byte {
	if len(b) > slabSize {
		return slices.Clip(append([]byte(nil), b...))
	}
	if cap(*s)-len(*s) < len(b) {
		*s = make(slab, 0, slabSize)
	}
	n := len(*s)
	*s = append(*s, b...)
	return (*s)[n:len(*s):len(*s)]
}

// Frame layout: a fixed header in front of the diffusion payload.
//
//	byte  0     magic (frameMagic)
//	byte  1     version (frameVersion)
//	byte  2     kind (data, reliable data, ack, ping, pong, announce, probe, leave)
//	bytes 3-6   sender link ID, big endian
//	bytes 7-10  destination link ID (Broadcast for floods), big endian
//	bytes 11-14 sender boot nonce (distinguishes process incarnations)
//	bytes 15-18 sequence number (reliable/heartbeat frames; 0 otherwise)
//	bytes 19-   diffusion message payload (data kinds only)
//
// The boot nonce lets a receiver detect that a neighbor restarted: the
// reliable-delivery duplicate window resets instead of black-holing the
// rebooted sender's restarted sequence space.
//
// Trace extension (optional): when bit 7 of the kind byte
// (kindTraceFlag) is set, three extension bytes follow the fixed header
// before the payload — a 16-bit flight-path flow ID (big endian) and the
// message's hop count — so the transport can stamp tx/recv spans without
// parsing diffusion payloads. Frames from pre-extension peers never set
// the bit and decode exactly as before; frames with the bit are decoded
// by pre-extension peers as an unknown kind and dropped, never
// misparsed.
//
// Custody: bit 6 of the kind byte (kindCustodyFlag) marks a reliable frame
// as a custody offer and an ack as a held ack, sent only once the receiver
// durably holds the payload. The flag is valid on those two kinds alone. A
// peer that predates the flag drops a flagged frame as an unknown kind, as
// it does a traced one; kinds 5 and 6, the custody frames of older builds,
// are retired and dropped the same way.
//
// Bundle: a datagram whose kind byte is kindBundle is not a frame but a
// train of them — the frames an entry, or a cork (UDP.Cork), had for one
// address, sent as one datagram:
//
//	bytes 0-2   magic, version, kindBundle
//	then, to the end of the datagram, per frame:
//	  2 bytes   the frame's length, big endian
//	  n bytes   the frame, laid out as above
//
// A sender never builds a bundle of one frame (a lone frame travels as the
// plain datagram it always was). A bundle is written when the next frame
// would not fit under the path's cap (UDP.hold). The receiver puts each
// inner frame through the one reception path, so each is validated, checked
// against the peer table, deduplicated and counted as if it had arrived
// alone; kindBundle is not a frame kind, so a bundle inside a bundle is
// malformed, and a node that predates bundles drops them as an unknown kind.
const (
	frameMagic       = 0xD1
	frameVersion     = 2
	headerSize       = 19
	kindTraceFlag    = 0x80
	kindCustodyFlag  = 0x40
	traceExtSize     = 3
	bundleHeaderSize = 3
	bundlePrefixSize = 2
	// bundleMax is every path's cap but loopback's: one Ethernet MTU, so
	// IP never fragments a bundle.
	bundleMax = 1400
)

// Frame kinds.
const (
	kindData     = 0 // fire-and-forget diffusion payload
	kindReliable = 1 // acked diffusion payload (reliable unicast)
	kindAck      = 2 // acknowledges a kindReliable seq
	kindPing     = 3 // heartbeat probe
	kindPong     = 4 // heartbeat response
	kindAnnounce = 7 // membership announce: addresses, vocab digest, gossip (discovery.go)
	kindProbe    = 8 // membership probe: solicits a unicast announce
	kindLeave    = 9 // graceful departure: demote me now, don't wait for timeouts
	numKinds     = 10
	kindBundle   = numKinds // a datagram of several frames, not a frame kind
)

// knownKind reports whether k, a kind byte without kindTraceFlag, is a
// frame kind: 5 and 6 are retired, and kindCustodyFlag marks offers and
// held acks only.
func knownKind(k uint8) bool {
	if k&^kindCustodyFlag == kindReliable || k&^kindCustodyFlag == kindAck {
		return true
	}
	return k <= kindPong || kindAnnounce <= k && k < numKinds
}

// maxPayload bounds a single framed message; UDP datagrams beyond this are
// rejected at send time rather than silently truncated on the wire.
const maxPayload = 60 * 1024

// Frame errors.
var (
	ErrClosed     = errors.New("transport: closed")
	ErrTooLarge   = fmt.Errorf("transport: payload exceeds %d bytes", maxPayload)
	errShortFrame = errors.New("transport: short frame")
	errBadMagic   = errors.New("transport: bad magic")
	errBadVersion = errors.New("transport: unsupported version")
	errBadKind    = errors.New("transport: unknown frame kind")
)

// frame is one decoded transport header plus its payload.
type frame struct {
	kind    uint8
	from    uint32
	dst     uint32
	boot    uint32
	seq     uint32
	flow    uint16 // trace extension; 0 when absent
	hop     uint8
	payload []byte // aliases the receive buffer
}

// appendFrame appends the wire form of one frame to b, with the trace
// extension when flow is non-zero, and returns the extended slice.
func appendFrame(b []byte, kind uint8, from, dst, boot, seq uint32, flow uint16, hop uint8, payload []byte) []byte {
	if flow != 0 {
		kind |= kindTraceFlag
	}
	b = append(b, frameMagic, frameVersion, kind)
	b = binary.BigEndian.AppendUint32(b, from)
	b = binary.BigEndian.AppendUint32(b, dst)
	b = binary.BigEndian.AppendUint32(b, boot)
	b = binary.BigEndian.AppendUint32(b, seq)
	if flow != 0 {
		b = binary.BigEndian.AppendUint16(b, flow)
		b = append(b, hop)
	}
	return append(b, payload...)
}

// decodeFrame validates the header and returns its fields. The returned
// payload aliases b.
func decodeFrame(b []byte) (frame, error) {
	if len(b) < headerSize {
		return frame{}, errShortFrame
	}
	if b[0] != frameMagic {
		return frame{}, errBadMagic
	}
	if b[1] != frameVersion {
		return frame{}, errBadVersion
	}
	if !knownKind(b[2] &^ kindTraceFlag) {
		return frame{}, errBadKind
	}
	f := frame{
		kind:    b[2] &^ kindTraceFlag,
		from:    binary.BigEndian.Uint32(b[3:]),
		dst:     binary.BigEndian.Uint32(b[7:]),
		boot:    binary.BigEndian.Uint32(b[11:]),
		seq:     binary.BigEndian.Uint32(b[15:]),
		payload: b[headerSize:],
	}
	if b[2]&kindTraceFlag != 0 {
		if len(b) < headerSize+traceExtSize {
			return frame{}, errShortFrame
		}
		f.flow = binary.BigEndian.Uint16(b[headerSize:])
		f.hop = b[headerSize+2]
		f.payload = b[headerSize+traceExtSize:]
	}
	return f, nil
}

// isBundle reports whether datagram b is a bundle.
func isBundle(b []byte) bool {
	return len(b) >= bundleHeaderSize && b[0] == frameMagic && b[1] == frameVersion && b[2] == kindBundle
}

// bootCounter makes boot nonces distinct within a process even when two
// endpoints start in the same nanosecond.
var bootCounter atomic.Uint32

// newBootNonce returns a nonce that differs across process incarnations
// (and across endpoints within one process). It deliberately does not use
// any configured seed: two runs of the same config must get different
// nonces, that is the point.
func newBootNonce() uint32 {
	return uint32(time.Now().UnixNano()) ^ (bootCounter.Add(1) << 20)
}

// Stats is the per-packet accounting both transports maintain. Fields are
// atomics so that the engines can count under the endpoint's lock while
// metrics scrapes, and the frame writes made outside it, read and count
// without it.
type Stats struct {
	Sent         atomic.Uint64 // datagrams handed to the medium
	FramesSent   atomic.Uint64 // frames in them; above Sent by what the endpoint coalesced: an entry's or a cork's frames to one address
	SentBytes    atomic.Uint64
	Recv         atomic.Uint64 // well-formed frames delivered up
	RecvBytes    atomic.Uint64
	SendErrors   atomic.Uint64 // socket/medium write failures
	RecvDropped  atomic.Uint64 // malformed, unknown-sender or oversize
	LossInjected atomic.Uint64 // injected-loss discards
	QueueDrops   atomic.Uint64 // bounded-queue overflow discards

	// Heartbeat / failure-detector accounting (liveness.go).
	HeartbeatsSent atomic.Uint64 // pings + pongs written
	HeartbeatsRecv atomic.Uint64 // pings + pongs received
	PeerSuspects   atomic.Uint64 // alive → suspect transitions
	PeerDeaths     atomic.Uint64 // suspect → dead transitions
	PeerRecoveries atomic.Uint64 // suspect/dead → alive transitions
	RTTMicrosSum   atomic.Uint64 // sum of measured heartbeat RTTs
	RTTCount       atomic.Uint64

	// Reliable-unicast accounting (reliable.go).
	Retransmits   atomic.Uint64 // frames re-sent after an ack timeout
	AcksSent      atomic.Uint64 // acks of reliable frames; plain acks of custody offers are not counted
	AcksRecv      atomic.Uint64 // the same, received by an endpoint that sends reliable frames
	ReliableDrops atomic.Uint64 // frames abandoned after max retries
	DupSuppressed atomic.Uint64 // duplicate reliable frames not delivered
	ReliableStale atomic.Uint64 // frames not delivered: below the duplicate window

	// Custody-transfer accounting (custody.go).
	CustodySent        atomic.Uint64 // first transmissions of custody offers
	CustodyRetransmits atomic.Uint64 // offer retransmissions (incl. re-offers)
	CustodyAcksSent    atomic.Uint64 // durable accepts acknowledged (held acks)
	CustodyAcksRecv    atomic.Uint64 // held acks received
	CustodyRejected    atomic.Uint64 // offers refused by Accept (queue full)

	// Partition accounting (runtime impairment, udp.go).
	PartitionDropped atomic.Uint64

	// Membership / discovery accounting (discovery.go).
	AnnouncesSent     atomic.Uint64
	AnnouncesRecv     atomic.Uint64
	ProbesSent        atomic.Uint64
	ProbesRecv        atomic.Uint64
	LeavesSent        atomic.Uint64
	LeavesRecv        atomic.Uint64
	GossipLearned     atomic.Uint64 // peers first learned from a gossip list
	GossipRefused     atomic.Uint64 // unknown IDs refused a record: the table was full
	MemberJoins       atomic.Uint64 // discovered peers promoted to neighbors
	MemberRejoins     atomic.Uint64 // boot-nonce changes on promoted peers
	MemberEvictions   atomic.Uint64 // neighbors displaced by the degree cap
	MemberDemotions   atomic.Uint64 // handshake failures / peer dropped us
	MemberDepartures  atomic.Uint64 // explicit leave frames honored
	MemberDeadRemoved atomic.Uint64 // discovered neighbors removed on death
	MemberQuarantined atomic.Uint64 // peers refused for vocabulary mismatch
}

// refused counts a frame w's fresh turned down at seq: as stale when it
// fell below the window, else as a duplicate.
func (s *Stats) refused(w *dupWindow, seq uint32) {
	if w.max-seq > dupSpan {
		s.ReliableStale.Add(1)
	} else {
		s.DupSuppressed.Add(1)
	}
}

// Instrument publishes the transport counters on reg at snapshot time,
// mirroring how the MAC and core layers instrument: the datagram paths
// keep bumping atomics and pay nothing string-keyed.
func (s *Stats) Instrument(reg *telemetry.Registry) {
	reg.AddCollector(func(emit func(string, float64)) {
		emit("transport.sent", float64(s.Sent.Load()))
		emit("transport.frames_sent", float64(s.FramesSent.Load()))
		emit("transport.sent_bytes", float64(s.SentBytes.Load()))
		emit("transport.recv", float64(s.Recv.Load()))
		emit("transport.recv_bytes", float64(s.RecvBytes.Load()))
		emit("transport.send_errors", float64(s.SendErrors.Load()))
		emit("transport.recv_dropped", float64(s.RecvDropped.Load()))
		emit("transport.loss_injected", float64(s.LossInjected.Load()))
		emit("transport.queue_drops", float64(s.QueueDrops.Load()))
		emit("transport.heartbeats_sent", float64(s.HeartbeatsSent.Load()))
		emit("transport.heartbeats_recv", float64(s.HeartbeatsRecv.Load()))
		emit("transport.peer_suspects", float64(s.PeerSuspects.Load()))
		emit("transport.peer_deaths", float64(s.PeerDeaths.Load()))
		emit("transport.peer_recoveries", float64(s.PeerRecoveries.Load()))
		if c := s.RTTCount.Load(); c > 0 {
			emit("transport.heartbeat_rtt_mean_us", float64(s.RTTMicrosSum.Load())/float64(c))
		} else {
			emit("transport.heartbeat_rtt_mean_us", 0)
		}
		emit("transport.retransmits", float64(s.Retransmits.Load()))
		emit("transport.acks_sent", float64(s.AcksSent.Load()))
		emit("transport.acks_recv", float64(s.AcksRecv.Load()))
		emit("transport.reliable_drops", float64(s.ReliableDrops.Load()))
		emit("transport.dup_suppressed", float64(s.DupSuppressed.Load()))
		emit("transport.reliable_stale", float64(s.ReliableStale.Load()))
		emit("transport.custody_sent", float64(s.CustodySent.Load()))
		emit("transport.custody_retransmits", float64(s.CustodyRetransmits.Load()))
		emit("transport.custody_acks_sent", float64(s.CustodyAcksSent.Load()))
		emit("transport.custody_acks_recv", float64(s.CustodyAcksRecv.Load()))
		emit("transport.custody_rejected", float64(s.CustodyRejected.Load()))
		emit("transport.partition_dropped", float64(s.PartitionDropped.Load()))
		emit("discovery.announces_sent", float64(s.AnnouncesSent.Load()))
		emit("discovery.announces_recv", float64(s.AnnouncesRecv.Load()))
		emit("discovery.probes_sent", float64(s.ProbesSent.Load()))
		emit("discovery.probes_recv", float64(s.ProbesRecv.Load()))
		emit("discovery.leaves_sent", float64(s.LeavesSent.Load()))
		emit("discovery.leaves_recv", float64(s.LeavesRecv.Load()))
		emit("discovery.gossip_learned", float64(s.GossipLearned.Load()))
		emit("discovery.gossip_refused", float64(s.GossipRefused.Load()))
		emit("discovery.joins", float64(s.MemberJoins.Load()))
		emit("discovery.rejoins", float64(s.MemberRejoins.Load()))
		emit("discovery.evictions", float64(s.MemberEvictions.Load()))
		emit("discovery.demotions", float64(s.MemberDemotions.Load()))
		emit("discovery.departures", float64(s.MemberDepartures.Load()))
		emit("discovery.dead_removed", float64(s.MemberDeadRemoved.Load()))
		emit("discovery.quarantined", float64(s.MemberQuarantined.Load()))
	})
}

// onSend counts one datagram of n bytes carrying the given number of frames.
func (s *Stats) onSend(n, frames int) {
	s.Sent.Add(1)
	s.FramesSent.Add(uint64(frames))
	s.SentBytes.Add(uint64(n))
}

func (s *Stats) onRecv(n int) {
	s.Recv.Add(1)
	s.RecvBytes.Add(uint64(n))
}
