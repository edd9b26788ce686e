package transport

import (
	"math"
	"net/netip"
	"time"

	"diffusion/internal/message"
)

// This file states the contract the UDP endpoint's link engines — failure
// detector (liveness.go), reliable unicast and its custody offers
// (reliable.go, custody.go) and membership (discovery.go) — and the
// neighbor/impairment table every frame leaves through (peers.go) are
// written to. An engine is a plain state machine:
//
//	step(frame | tick, now) → frames to send, events, table changes
//
// collected in an effects value, plus nextDeadline(), the earliest time it
// wants a tick. It holds no lock, starts no goroutine, never reads a
// clock and never touches a socket or a resolver: time is the `now`
// argument, randomness an injected stream. What an engine keeps per
// neighbor lives in that neighbor's one table row, and every walk of the
// rows goes in ID order, so no RNG draw, tie-break or frame on the wire
// depends on map order. A run is therefore a pure function of (seed,
// schedule), on the wall clock and on internal/sim's virtual clock alike.
// The driver in udp.go owns the lock, the timer and the socket.

// engine is the scheduling half of that contract, all the driver's timer
// needs to know.
type engine interface {
	// nextDeadline is the earliest time the engine wants a tick; it may
	// run early, never late.
	nextDeadline() time.Duration
	// tick does whatever has come due at now.
	tick(now time.Duration, fx *effects)
}

// never is the deadline of an engine with nothing scheduled.
const never = time.Duration(math.MaxInt64)

// longAgo initialises "last did X at" fields so the first rate-limit check
// passes whatever the clock reads — a virtual clock starts at zero.
const longAgo = time.Duration(math.MinInt64 / 2)

// outFrame is one frame an engine wants on the wire.
type outFrame struct {
	peer    uint32         // destination link ID; 0 when not yet known (a seed address)
	addr    netip.AddrPort // explicit destination (membership frames); zero means the peer's table address
	kind    uint8
	seq     uint32
	payload []byte
	// offerAck marks a plain ack of a custody offer, which AcksSent (the
	// acks of reliable frames) does not count.
	offerAck bool
	// pooled marks a datagram ready for the wire: payload is its bytes, in
	// this framePool buffer, and frames how many frames they hold. Every
	// frame leaves the lock encoded (udp.go, step) into a datagram, so
	// nothing written once the lock is released reads an engine's buffer.
	pooled *[]byte
	frames int
}

// carriesMessage reports whether kind frames a diffusion message (as
// opposed to link-layer chatter): the kinds the per-peer traffic counters
// and the flight-path spans account.
func carriesMessage(kind uint8) bool {
	return kind == kindData || kind&^kindCustodyFlag == kindReliable
}

// opKind is a change the membership engine wants made to the rest of the
// endpoint.
type opKind uint8

const (
	opAdd       opKind = iota // install (or re-address) peer as a neighbor
	opRemove                  // drop peer's row, and with it all its link state
	opRejoin                  // peer's new incarnation: reset its sender state and detector record
	opForceDead               // mark a pinned peer dead now (it said goodbye)
)

// tableOp is one such change; the driver applies them in order before it
// drops the lock.
type tableOp struct {
	kind opKind
	peer uint32
	addr netip.AddrPort
}

// effects is everything one entry into the endpoint produced. It lives on
// the entering goroutine's stack and holds no pointer into itself, so the
// common one- or two-frame step allocates nothing (a reception lends it
// its record's spill slices).
type effects struct {
	// The frames, in order: the first len(buf) inline, the rest in more.
	// The first done are datagrams ready for the wire; delivered marks the
	// new frames as answering a Deliver upcall.
	n         int
	buf       [4]outFrame
	more      []outFrame
	done      int
	delivered bool

	calls       []func()     // user callbacks owed, run once the lock is released
	ops         []tableOp    // what discovery wants done to the table
	transitions []transition // what the failure detector decided

	// What a reception's frames owe once the lock is released, in frame
	// order; their payloads alias the datagram dgram records.
	rx    []reception
	dgram *rxDatagram
}

// reception is a received frame that owes a Deliver upcall of its payload,
// size bytes on the wire, or else a flight-path recv span.
type reception struct {
	f       frame
	size    int
	deliver bool
}

// at returns frame i.
func (fx *effects) at(i int) *outFrame {
	if i < len(fx.buf) {
		return &fx.buf[i]
	}
	return &fx.more[i-len(fx.buf)]
}

// push appends a frame.
func (fx *effects) push(f outFrame) {
	if fx.n < len(fx.buf) {
		fx.buf[fx.n] = f
	} else {
		fx.more = append(fx.more, f)
	}
	fx.n++
}

// truncate keeps the first n frames.
func (fx *effects) truncate(n int) {
	fx.n = n
	fx.more = fx.more[:max(n-len(fx.buf), 0)]
}

// send queues a frame to table member peer.
func (fx *effects) send(peer uint32, kind uint8, seq uint32, payload []byte) {
	fx.push(outFrame{peer: peer, kind: kind, seq: seq, payload: payload})
}

// deliverUp hands frame f's payload, size bytes on the wire, to Deliver,
// counting it against the sender's table row.
func (fx *effects) deliverUp(from *peerEntry, f frame, size int) {
	from.dataRecv++
	fx.rx = append(fx.rx, reception{f: f, size: size, deliver: true})
	fx.delivered = true
}

// pending is one unacknowledged frame toward a peer: a reliable frame, or
// a custody offer (kind has kindCustodyFlag). Both take the sender's one
// sequence space and window toward the peer and retransmit on the same
// capped doubling schedule, each kind on its own RTOs. They differ in when
// they stop: a reliable frame is abandoned after MaxRetries, an offer never.
type pending struct {
	seq     uint32
	kind    uint8
	id      message.ID // custody offers only
	payload []byte
	tries   int // transmission attempts so far
	due     time.Duration
}

// custody reports whether p is a custody offer.
func (p *pending) custody() bool { return p.kind&kindCustodyFlag != 0 }
