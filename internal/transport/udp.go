package transport

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sync"
	"time"

	"diffusion/internal/message"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
)

// UDPConfig parameterizes a UDP link endpoint.
type UDPConfig struct {
	// ID is this node's link-layer identifier. Required, and must not be
	// the broadcast address.
	ID uint32
	// Listen is the local UDP address to bind ("127.0.0.1:7001"; port 0
	// picks a free port, see LocalAddr).
	Listen string
	// Neighbors maps neighbor link IDs to their UDP addresses. Broadcast
	// sends one datagram per neighbor — the neighbor table takes the place
	// of the radio's spatial reachability. These rows are pinned for the
	// life of the endpoint, like the paper's testbed's fixed node
	// placement; only Discovery adds and removes others.
	Neighbors map[uint32]string
	// Deliver receives every well-formed payload from a table member.
	// Required. Called with the endpoint's lock released, by whoever handed
	// the endpoint the datagram — live, the socket reader goroutine.
	Deliver Deliver
	// Loss, in [0,1), drops each outgoing datagram independently with
	// this probability — injected loss for parity testing against the
	// simulated radio. Zero means lossless. Adjustable at runtime with
	// SetLoss.
	Loss float64
	// Seed seeds the loss-draw and probe-jitter streams.
	Seed int64
	// Liveness, when non-nil, enables the heartbeat failure detector
	// (liveness.go): neighbors are classified alive/suspect/dead and
	// state changes surface through Liveness.OnStateChange and
	// PeerHealth.
	Liveness *LivenessConfig
	// Reliable, when non-nil, enables reliable unicast (reliable.go):
	// unicast sends are acked and retransmitted with capped backoff,
	// queued per neighbor with overload shedding, and duplicates from
	// retransmission are suppressed on receive. Broadcast stays
	// fire-and-forget.
	Reliable *ReliableConfig
	// Custody, when non-nil, enables custody transfer (custody.go):
	// SendCustody offers ride the reliable engine, flagged, and are
	// retransmitted until the peer acknowledges them, received offers are
	// acked only after the Accept callback persists them, and in-flight
	// offers are re-sent the moment the failure detector hears a neighbor
	// again. Pair with Liveness for the recovery re-offers.
	Custody *CustodyOptions
	// Discovery, when non-nil, enables the membership subsystem
	// (discovery.go): the endpoint announces itself to seed addresses,
	// gossips known peers, promotes discovered peers to full neighbors
	// under a degree cap and demotes them on death or explicit leave.
	// Requires Liveness. The static Neighbors table remains valid — its
	// entries are pinned members the discovery layer never evicts.
	Discovery *DiscoveryConfig
	// Spans, when non-nil, records flight-path tx/recv events for sampled
	// payloads (message flow ID non-zero): sampled frames carry the trace
	// extension on the wire and stamp the ring on both ends. Nil disables
	// transport-layer tracing; unsampled traffic never pays for it either
	// way.
	Spans *telemetry.Ring
}

// wire is the datagram medium the driver writes to: the UDP socket live, an
// in-memory switch under the virtual-time test harness (which hands
// receptions straight to receive instead of running a reader). A write
// borrows b, which is a pooled buffer, for the call.
type wire interface {
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	LocalAddr() net.Addr
	Close() error
}

// UDP is a core.Link over UDP datagrams: unicast sends one datagram to the
// neighbor's address, broadcast sends one per neighbor. Payload frames are
// accepted only from table members — configured or promoted by discovery —
// so a stray datagram cannot inject traffic under an unknown ID;
// membership frames (announce/probe/leave) are the one exception, since
// their whole point is to introduce unknown peers.
//
// UDP is also the link engines' driver; the package comment says how.
type UDP struct {
	id      uint32
	boot    uint32
	wire    wire
	clock   sim.Clock
	deliver Deliver
	stats   Stats
	spans   *telemetry.Ring
	// timed is false for a bare endpoint — no engine — whose entries then
	// skip reading the clock.
	timed      bool
	readerDone chan struct{} // closed when the reader goroutine exits; nil without one

	// peersMu is the endpoint's one lock. It guards the neighbor table and
	// every engine — all of it state about peers — and is never held across
	// a socket call, a user callback or the custody Accept.
	peersMu sync.Mutex
	peerTable
	det     *detector
	rel     *reliable // reliable unicast and custody offers
	disco   *discovery
	engines []engine // those of the three that are configured, in that order
	// The one timer, armed at timerAt (never when idle). timerGen tells a
	// firing that lost the race with a re-arm that it is stale.
	timer    sim.Timer
	timerAt  time.Duration
	timerGen uint64
	closed   bool
	// An entry encodes its frames into outgoing, one datagram per
	// destination address in first-use order, and writes them as it
	// leaves; while corked, into held until Uncork. corker is set by the
	// first Cork.
	corked, corker bool
	held, outgoing []heldDatagram
}

// heldDatagram is a datagram being filled for one address: a framePool
// buffer laid out as a bundle, and the longest the path lets it grow.
type heldDatagram struct {
	addr   netip.AddrPort
	buf    *[]byte
	frames int
	limit  int
}

// out is d as a finished datagram. A lone frame is written as the plain
// datagram it always was, so only real coalescing changes the wire.
func (d *heldDatagram) out() outFrame {
	b := *d.buf
	if d.frames == 1 {
		b = b[bundleHeaderSize+bundlePrefixSize:]
	}
	return outFrame{addr: d.addr, payload: b, pooled: d.buf, frames: d.frames}
}

// ListenUDP binds cfg.Listen and starts the reader goroutine. The caller
// must Close the endpoint to release it.
func ListenUDP(cfg UDPConfig) (*UDP, error) {
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", cfg.Listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	u, err := newUDP(cfg, sim.NewRealClock(), conn, newBootNonce())
	if err != nil {
		conn.Close()
		return nil, err
	}
	u.readerDone = make(chan struct{})
	go u.readLoop(conn)
	return u, nil
}

// newUDP builds the driver and its engines over the given clock, medium
// and boot nonce, and arms the timer. Neighbor and seed addresses are
// operator input and are resolved here, once.
func newUDP(cfg UDPConfig, clock sim.Clock, w wire, boot uint32) (*UDP, error) {
	if cfg.ID == Broadcast {
		return nil, fmt.Errorf("transport: node ID %d is the broadcast address", cfg.ID)
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("transport: UDPConfig requires Deliver")
	}
	u := &UDP{
		id:      cfg.ID,
		boot:    boot,
		wire:    w,
		clock:   clock,
		deliver: cfg.Deliver,
		spans:   cfg.Spans,
		timerAt: never,
		peerTable: peerTable{
			peers:   make(map[uint32]*peerEntry, len(cfg.Neighbors)),
			rng:     rand.New(rand.NewSource(cfg.Seed)),
			loss:    cfg.Loss,
			blocked: map[uint32]bool{},
		},
	}
	for id, addr := range cfg.Neighbors {
		a, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("transport: neighbor %d %q: %w", id, addr, err)
		}
		u.put(id, addrPort(a), true)
	}
	now := clock.Now()
	if cfg.Liveness != nil {
		u.det = newDetector(*cfg.Liveness, cfg.Seed^int64(cfg.ID), &u.peerTable, &u.stats, now)
		u.engines = append(u.engines, u.det)
	}
	if cfg.Reliable != nil || cfg.Custody != nil {
		var rc ReliableConfig
		if cfg.Reliable != nil {
			rc = *cfg.Reliable
		}
		u.rel = newReliable(rc, &u.peerTable, &u.stats)
		u.rel.unicast = cfg.Reliable != nil
		if cfg.Custody != nil {
			if cfg.Custody.Accept == nil {
				return nil, fmt.Errorf("transport: CustodyOptions requires Accept")
			}
			cus := *cfg.Custody
			cus.fill()
			u.rel.cus = &cus
		}
		u.engines = append(u.engines, u.rel)
	}
	if cfg.Discovery != nil {
		if cfg.Liveness == nil {
			return nil, fmt.Errorf("transport: Discovery requires Liveness (promoted peers need the failure detector)")
		}
		var seeds []netip.AddrPort
		for _, s := range cfg.Discovery.Seeds {
			a, err := net.ResolveUDPAddr("udp", s)
			if err != nil {
				return nil, fmt.Errorf("transport: seed %q: %w", s, err)
			}
			seeds = append(seeds, addrPort(a))
		}
		var err error
		u.disco, err = newDiscovery(*cfg.Discovery, cfg.ID, seeds, &u.peerTable, w.LocalAddr().String(),
			cfg.Seed^int64(cfg.ID), &u.stats, now)
		if err != nil {
			return nil, err
		}
		u.engines = append(u.engines, u.disco)
	}
	u.timed = len(u.engines) > 0
	u.peersMu.Lock()
	u.rearm(now)
	u.peersMu.Unlock()
	return u, nil
}

// enter takes the lock and reads the clock: the start of every entry.
func (u *UDP) enter() (now time.Duration) {
	u.peersMu.Lock()
	if u.timed {
		now = u.clock.Now()
	}
	return now
}

// leave ends an entry: step, take the entry's own datagrams, re-arm the
// timer, release the lock, and only then touch the socket and the user.
func (u *UDP) leave(fx *effects, now time.Duration) {
	u.step(fx, now)
	u.release(fx, &u.outgoing)
	if !u.closed {
		u.rearm(now)
	}
	u.peersMu.Unlock()
	u.perform(fx)
}

// step settles what the engines asked of each other, passes the new frames
// through the impairment and encodes them — into held if the endpoint is
// corked or they answer a delivery to a corking consumer, else into the
// entry's own — so that reliable unicast may recycle a frame's buffer the
// moment an ack for it arrives. A reception steps after each frame, so
// each meets the table and the buffers as it would have alone.
func (u *UDP) step(fx *effects, now time.Duration) {
	u.settle(fx, now)
	if fx.n > fx.done {
		u.admit(fx, &u.stats)
		to := &u.outgoing
		if u.corked || u.corker && fx.delivered {
			to = &u.held
		}
		u.hold(fx, to)
	}
	fx.delivered = false
}

// settle routes the failure detector's transitions and carries out
// discovery's table ops, in order, until neither raises more of the other
// (a goodbye from a pinned peer → forced dead → discovery hears of it).
// A recovered neighbor gets pending custody re-offered before the
// diffusion layer even reacts, and a dead discovered neighbor leaves the
// table after the caller has been told of the death.
func (u *UDP) settle(fx *effects, now time.Duration) {
	for len(fx.transitions) > 0 || len(fx.ops) > 0 {
		for _, tr := range fx.transitions {
			if tr.state == PeerAlive && u.rel != nil {
				u.rel.reoffer(u.peers[tr.peer], now, fx)
			}
			if cb := u.det.cfg.OnStateChange; cb != nil {
				fx.calls = append(fx.calls, func() { cb(tr.peer, tr.state) })
			}
			if tr.state == PeerDead && u.disco != nil {
				u.disco.peerDead(tr.peer, now, fx)
			}
		}
		fx.transitions = fx.transitions[:0]
		for _, op := range fx.ops {
			e := u.peers[op.peer]
			switch op.kind {
			case opAdd:
				u.det.add(u.put(op.peer, op.addr, false), now)
			case opRemove:
				if u.drop(op.peer) {
					u.forgetPeer(e)
				}
			case opRejoin:
				u.forgetPeer(e)
				u.det.add(e, now)
			case opForceDead:
				u.det.forceDead(e, now, fx)
			}
		}
		fx.ops = fx.ops[:0]
	}
}

// forgetPeer drops retransmission state toward row e's peer, which was
// removed or whose incarnation changed (seen by onFrame, or by discovery
// first): its receive windows reset with its boot nonce, so old reliable
// frames and custody offers are noise at best. Custody data itself stays in
// the queue — the core's replay re-offers it under fresh sequence numbers.
func (u *UDP) forgetPeer(e *peerEntry) {
	if u.rel != nil {
		u.rel.forget(e)
	}
}

// nextDeadline is the earliest deadline of any engine.
func (u *UDP) nextDeadline() time.Duration {
	next := never
	for _, e := range u.engines {
		next = min(next, e.nextDeadline())
	}
	return next
}

// rearm moves the timer when the earliest deadline is before what it is
// armed for. Deadlines that moved later are left to fire early: onTimer
// finds nothing due and re-arms, which is cheaper than a timer operation
// per acknowledged frame.
func (u *UDP) rearm(now time.Duration) {
	next := u.nextDeadline()
	if next >= u.timerAt {
		return
	}
	if u.timer != nil {
		u.timer.Cancel()
	}
	u.timerGen++
	gen := u.timerGen
	u.timerAt = next
	u.timer = u.clock.After(next-now, func() { u.onTimer(gen) })
}

// onTimer is the timer entry: tick every engine with something due.
func (u *UDP) onTimer(gen uint64) {
	var fx effects
	now := u.enter()
	if u.closed || gen != u.timerGen {
		u.peersMu.Unlock()
		return
	}
	u.timer, u.timerAt = nil, never
	for _, e := range u.engines {
		if e.nextDeadline() <= now {
			e.tick(now, &fx)
		}
	}
	u.leave(&fx, now)
}

// Cork makes the endpoint hold what it would write: until Uncork, every
// frame an entry admits — whichever goroutine made it, whatever its kind —
// is encoded into a buffer for its destination address instead, so Send
// still only borrows its payload. A held datagram is written when the next
// frame would not fit under its path's cap, so a long corked stretch
// delays its first frames by a cap's worth at most. One goroutine
// corks at a time; core.Node does, once per rt.Loop wake-up.
//
// The first Cork also makes the caller the endpoint's corking consumer, and
// that is a contract: it corks around every reception it is handed. From
// then on a received frame that delivers holds its frames — the ack of a
// reliable frame, of a custody offer once Accept returned — for the
// consumer's next Uncork, so the acks of one wake-up share a datagram per
// upstream neighbor. What other frames answer (a duplicate, a pong, an ack
// that frees queued frames) leaves with their datagram's entry. A consumer
// that breaks the contract costs an ack one RTO: the retransmit is a
// duplicate, acked at once.
func (u *UDP) Cork() {
	u.peersMu.Lock()
	u.corked, u.corker = true, true
	u.peersMu.Unlock()
}

// Uncork writes what Cork held, one datagram per destination address, and
// returns the endpoint to writing frames as they come. After Close it finds
// nothing held.
func (u *UDP) Uncork() {
	var fx effects
	u.peersMu.Lock()
	u.corked = false
	u.release(&fx, &u.held)
	u.peersMu.Unlock()
	u.perform(&fx)
}

// hold encodes fx's new frames into list's datagrams, leaving in fx only
// the datagrams that filled up.
func (u *UDP) hold(fx *effects, list *[]heldDatagram) {
	full := fx.done
	for i := fx.done; i < fx.n; i++ {
		f := *fx.at(i)
		d := heldFor(list, f.addr)
		start := len(*d.buf)
		b := u.encode(append(*d.buf, 0, 0), &f)
		if d.frames > 0 && len(b) > d.limit {
			// f does not fit under the path's cap: the held datagram goes
			// now and f starts the next. (One per frame: full ≤ i.)
			*d.buf = b[:start]
			*fx.at(full) = d.out()
			full++
			*d = newHeld(f.addr)
			b = append(*d.buf, b[start:]...)
			start = bundleHeaderSize
		}
		binary.BigEndian.PutUint16(b[start:], uint16(len(b)-start-bundlePrefixSize))
		*d.buf = b
		d.frames++
	}
	fx.truncate(full)
	fx.done = full
}

// heldFor finds or starts list's datagram for addr.
func heldFor(list *[]heldDatagram, addr netip.AddrPort) *heldDatagram {
	for i := range *list {
		if (*list)[i].addr == addr {
			return &(*list)[i]
		}
	}
	*list = append(*list, newHeld(addr))
	return &(*list)[len(*list)-1]
}

func newHeld(addr netip.AddrPort) heldDatagram {
	buf := framePool.Get().(*[]byte)
	*buf = append((*buf)[:0], frameMagic, frameVersion, kindBundle)
	limit := bundleMax
	if addr.Addr().Unmap().IsLoopback() {
		limit = loopbackCap()
	}
	return heldDatagram{addr: addr, buf: buf, limit: limit}
}

// loopbackCap is a loopback path's cap: the loopback interface's MTU less
// the IPv6 and UDP headers, no longer than a reader's buffer, and bundleMax
// when no interface says.
var loopbackCap = sync.OnceValue(func() int {
	ifs, _ := net.Interfaces() // an error lists none
	for _, ifc := range ifs {
		if ifc.Flags&net.FlagLoopback != 0 {
			return min(max(ifc.MTU-48, bundleMax), maxPayload+headerSize+traceExtSize)
		}
	}
	return bundleMax
})

// release moves every datagram of list into fx, to be written by perform.
func (u *UDP) release(fx *effects, list *[]heldDatagram) {
	for i := range *list {
		fx.push((*list)[i].out())
	}
	*list = (*list)[:0]
}

// perform does, with the lock released, what an entry decided under it:
// datagrams to the wire, then callbacks, then recv spans and Deliver
// upcalls in frame order.
func (u *UDP) perform(fx *effects) {
	for i := 0; i < fx.n; i++ {
		f := fx.at(i)
		u.write(f.payload, f.addr, f.frames)
		framePool.Put(f.pooled)
	}
	for _, call := range fx.calls {
		call()
	}
	for i := range fx.rx {
		if r := &fx.rx[i]; r.deliver {
			u.stats.onRecv(r.size)
			u.deliver(r.f.from, fx.dgram.window(r.f.payload))
		} else {
			u.span(telemetry.Recv, r.f.from, r.f.payload)
		}
	}
}

// write hands one datagram of the given number of frames to the wire.
func (u *UDP) write(b []byte, addr netip.AddrPort, frames int) {
	if _, err := u.wire.WriteToUDPAddrPort(b, addr); err != nil {
		u.stats.SendErrors.Add(1)
		return
	}
	u.stats.onSend(len(b), frames)
}

// framePool holds the buffers hold encodes frames into; entries run on
// several goroutines at once, so the endpoint cannot own just one. The wire
// is done with a buffer when its write returns.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// encode appends f's wire form to b, stamping a tx span when it carries a
// sampled message.
func (u *UDP) encode(b []byte, f *outFrame) []byte {
	var flow uint16
	var hop uint8
	if u.spans != nil && carriesMessage(f.kind) {
		if flow, hop = message.PeekTrace(f.payload); flow != 0 {
			u.span(telemetry.Tx, f.peer, f.payload)
		}
	}
	dst := f.peer
	if dst == 0 {
		dst = Broadcast // a seed whose ID is not known yet; every receiver accepts it
	}
	return appendFrame(b, f.kind, u.id, dst, u.boot, f.seq, flow, hop, f.payload)
}

// span records one transport-layer flight-path event for a sampled payload.
func (u *UDP) span(v telemetry.Verb, peer uint32, payload []byte) {
	if e := telemetry.PeekEvent(payload); e.Flow != 0 {
		e.Node, e.Peer, e.Verb, e.Layer = u.id, peer, v, telemetry.LayerTransport
		u.spans.Record(e)
	}
}

// ID returns this node's link-layer identifier (core.Link).
func (u *UDP) ID() uint32 { return u.id }

// Boot returns this endpoint's boot nonce — the value receivers use to
// tell process incarnations apart, and the one a span collector needs to
// scope spans to one incarnation.
func (u *UDP) Boot() uint32 { return u.boot }

// LocalAddr returns the bound address (useful with port 0).
func (u *UDP) LocalAddr() *net.UDPAddr { return u.wire.LocalAddr().(*net.UDPAddr) }

// Stats returns the endpoint's packet accounting.
func (u *UDP) Stats() *Stats { return &u.stats }

// Members returns the endpoint's full membership view: every neighbor-
// table row (with per-peer traffic counters and liveness health) merged
// with every discovery record, sorted by ID. Without discovery it is just
// the configured table.
func (u *UDP) Members() []Member {
	now := u.enter()
	defer u.peersMu.Unlock()
	rows := make([]Member, 0, len(u.ids))
	for _, id := range u.ids {
		e := u.peers[id]
		m := Member{
			ID:             id,
			Addr:           e.addr.String(),
			Origin:         "discovered",
			Membership:     "neighbor",
			MembershipCode: MembershipNeighbor,
			DataRecv:       e.dataRecv,
			DataSent:       e.dataSent,
		}
		if e.configured {
			m.Origin = "configured"
		}
		if u.det != nil {
			m.Health, m.HasHealth = e.health(now), true
		}
		rows = append(rows, m)
	}
	if u.disco != nil {
		rows = u.disco.members(rows)
		slices.SortFunc(rows, func(a, b Member) int { return cmp.Compare(a.ID, b.ID) })
	}
	return rows
}

// DegreeCap returns the discovery degree cap (0 without discovery — the
// static table is whatever the operator wrote).
func (u *UDP) DegreeCap() int {
	if u.disco == nil {
		return 0
	}
	return u.disco.cfg.DegreeCap
}

// DiscoveryEnabled reports whether the membership subsystem is running.
func (u *UDP) DiscoveryEnabled() bool { return u.disco != nil }

// Leave sends a graceful-departure frame to every neighbor so they demote
// this node immediately instead of waiting out failure-detector timeouts.
// Call it right before Close on planned shutdowns. No-op without
// discovery.
func (u *UDP) Leave() {
	if u.disco == nil {
		return
	}
	var fx effects
	now := u.enter()
	if !u.closed {
		u.disco.leave(&fx)
	}
	u.leave(&fx, now)
}

// PeerHealth returns every neighbor's liveness snapshot, or nil when the
// endpoint runs without a failure detector.
func (u *UDP) PeerHealth() map[uint32]PeerHealth {
	if u.det == nil {
		return nil
	}
	now := u.enter()
	defer u.peersMu.Unlock()
	return u.det.snapshot(now)
}

// Isolated reports whether the failure detector considers every neighbor
// dead — the condition /healthz turns into a 503. Always false without a
// detector.
func (u *UDP) Isolated() bool {
	if u.det == nil {
		return false
	}
	u.peersMu.Lock()
	defer u.peersMu.Unlock()
	return u.det.allDead()
}

// PeerRetransmits snapshots per-neighbor reliable-unicast retransmission
// counts (nil when reliable unicast is disabled).
func (u *UDP) PeerRetransmits() map[uint32]uint64 {
	if u.rel == nil || !u.rel.unicast {
		return nil
	}
	u.peersMu.Lock()
	defer u.peersMu.Unlock()
	return u.rel.perPeerRetransmits()
}

// SetLoss changes the injected-loss probability at runtime (chaos
// harness). Values are clamped to [0,1].
func (u *UDP) SetLoss(p float64) {
	u.peersMu.Lock()
	u.loss = min(max(p, 0), 1)
	u.peersMu.Unlock()
}

// Loss returns the current injected-loss probability.
func (u *UDP) Loss() float64 {
	u.peersMu.Lock()
	defer u.peersMu.Unlock()
	return u.loss
}

// SetBlocked replaces the whole blocked-peer set: frames to and from those
// peers are dropped (and counted in Stats.PartitionDropped) until a later
// call lifts the partition. One call describes the partition. The failure
// detector keeps probing through it, so it marks a blocked peer suspect and
// then dead.
func (u *UDP) SetBlocked(peers []uint32) {
	set := make(map[uint32]bool, len(peers))
	for _, p := range peers {
		set[p] = true
	}
	u.peersMu.Lock()
	u.blocked = set
	u.peersMu.Unlock()
}

// Blocked returns the currently blocked peers (fresh slice, any order).
func (u *UDP) Blocked() []uint32 {
	u.peersMu.Lock()
	defer u.peersMu.Unlock()
	out := make([]uint32, 0, len(u.blocked))
	for p := range u.blocked {
		out = append(out, p)
	}
	return out
}

// Send transmits payload to dst — a neighbor ID or Broadcast — as one
// datagram per destination (core.Link). Sends to unknown unicast
// destinations are errors; injected loss consumes destinations silently,
// like the radio it stands in for. With the reliable option enabled,
// unicast payloads go through the acked/retransmitted path, which keeps a
// copy in a recycled buffer; broadcast is always fire-and-forget (flooding
// is its own redundancy). Send only borrows payload.
func (u *UDP) Send(dst uint32, payload []byte) error {
	return u.send(dst, payload, false, message.ID{})
}

// SendCustody offers custody of a diffusion payload to neighbor dst
// (core.CustodyLink). The offer is retransmitted with capped backoff —
// and re-sent on neighbor recovery — until dst durably accepts it; the
// CustodyOptions.Release callback then fires. It only borrows payload.
// Requires the Custody option.
func (u *UDP) SendCustody(dst uint32, id message.ID, payload []byte) error {
	if u.rel == nil || u.rel.cus == nil {
		return fmt.Errorf("transport: custody transfer not enabled")
	}
	return u.send(dst, payload, true, id)
}

// send is Send, or with custody SendCustody of id.
func (u *UDP) send(dst uint32, payload []byte, custody bool, id message.ID) error {
	if len(payload) > maxPayload {
		u.stats.SendErrors.Add(1)
		return ErrTooLarge
	}
	var fx effects
	var err error
	now := u.enter()
	e := u.peers[dst]
	switch {
	case u.closed:
		err = ErrClosed
	case dst == Broadcast && !custody:
		for _, peer := range u.ids {
			fx.send(peer, kindData, 0, payload)
		}
	case e == nil:
		u.stats.SendErrors.Add(1)
		err = fmt.Errorf("transport: %d is not a neighbor of %d", dst, u.id)
	case custody:
		u.rel.offer(e, id, payload, now, &fx)
	case u.rel != nil && u.rel.unicast:
		u.rel.send(e, payload, now, &fx)
	default:
		fx.send(dst, kindData, 0, payload)
	}
	u.leave(&fx, now)
	return err
}

// CustodyPending returns the number of outstanding custody offers, parked
// ones included (introspection; 0 without the Custody option).
func (u *UDP) CustodyPending() int {
	if u.rel == nil {
		return 0
	}
	u.peersMu.Lock()
	defer u.peersMu.Unlock()
	return len(u.rel.byID)
}

// readLoop feeds the socket's datagrams to receive until the socket
// closes.
func (u *UDP) readLoop(conn *net.UDPConn) {
	defer close(u.readerDone)
	buf := make([]byte, maxPayload+headerSize+traceExtSize)
	var d rxDatagram
	for {
		n, src, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			// Closed socket (or a transient error after close): exit.
			u.peersMu.Lock()
			closed := u.closed
			u.peersMu.Unlock()
			if closed {
				return
			}
			continue
		}
		u.receive(&d, buf[:n], netip.AddrPortFrom(src.Addr().Unmap(), src.Port()))
	}
}

// rxDatagram is the reception entry's record of one datagram. Whoever hands
// the endpoint datagrams reuses one record for all of them, as the reader
// does: a new one per datagram would be a heap allocation. The record's
// owner is the only goroutine that touches its slab, so it needs no lock.
type rxDatagram struct {
	b    []byte     // the datagram, borrowed until receive returns
	own  []byte     // b's one copy, made when the first of its frames delivers
	slab slab       // what the copies are carved from
	more []outFrame // the room an entry's spill slices grew, lent to the next
	rx   []reception
}

// window returns payload, a slice of d.b, as the same bytes of d's copy,
// capacity-clipped so that an append to one frame's payload cannot reach
// the next. payload was cut from d.b without clipping, so the two
// capacities differ by its offset.
func (d *rxDatagram) window(payload []byte) []byte {
	if d.own == nil {
		d.own = d.slab.copyOf(d.b)
	}
	off := cap(d.b) - cap(payload)
	return d.own[off : off+len(payload) : off+len(payload)]
}

// receive is the reception entry: one datagram b from wire address src, a
// frame or a bundle of them, recorded in d, under one lock and clock read.
// Each frame is checked on its own, so those before a malformed tail stand;
// a bundle of no frames is malformed too. b is only read, and not after
// receive returns; what Deliver is handed are windows on d's copy of it.
func (u *UDP) receive(d *rxDatagram, b []byte, src netip.AddrPort) {
	d.b, d.own = b, nil
	var fx effects // filled in place: a literal would be built aside and copied
	fx.more, fx.rx, fx.dgram = d.more, d.rx, d
	now := u.enter()
	rest, bundle := b, isBundle(b)
	if bundle {
		rest = b[bundleHeaderSize:]
	}
	for fb := rest; ; fb = rest {
		if !bundle {
			rest = nil
		} else if len(rest) < bundlePrefixSize || int(binary.BigEndian.Uint16(rest)) > len(rest)-bundlePrefixSize {
			u.stats.RecvDropped.Add(1)
			break
		} else {
			n := bundlePrefixSize + int(binary.BigEndian.Uint16(rest))
			fb, rest = rest[bundlePrefixSize:n], rest[n:]
		}
		f, err := decodeFrame(fb)
		switch {
		case err != nil || f.from == u.id:
			u.stats.RecvDropped.Add(1)
		case u.closed:
		case u.onFrame(f, src, len(fb), now, &fx):
			// Accept runs with the lock released: this entry leaves with
			// what the frames before the offer owe, the next takes the rest.
			u.leave(&fx, now)
			fx = effects{more: fx.more[:0], rx: fx.rx[:0], dgram: d}
			now = u.acceptOffer(f, len(fb), &fx)
		}
		if len(rest) == 0 {
			break
		}
		u.step(&fx, now)
	}
	u.leave(&fx, now)
	d.more, d.rx = fx.more[:0], fx.rx[:0]
}

// onFrame handles one decoded frame under the lock. Any valid frame from a
// table member counts as proof of life for the failure detector. It reports
// true for a custody offer this node can vouch for, which the caller must
// put through Accept — an fsync — with the lock released.
func (u *UDP) onFrame(f frame, src netip.AddrPort, size int, now time.Duration, fx *effects) (offer bool) {
	membership := f.kind == kindAnnounce || f.kind == kindProbe || f.kind == kindLeave
	entry := u.peers[f.from]
	if f.dst != Broadcast && f.dst != u.id {
		u.stats.RecvDropped.Add(1)
		return false
	}
	if entry == nil {
		// Unknown senders may only speak the membership protocol — that is
		// how they become known.
		if u.disco != nil && membership {
			u.disco.frame(f, src, now, fx)
		} else {
			u.stats.RecvDropped.Add(1)
		}
		return false
	}
	if u.blocked[f.from] {
		u.stats.PartitionDropped.Add(1)
		return false
	}
	if entry.booted && entry.boot != f.boot {
		u.forgetPeer(entry) // a new incarnation, configured or discovered
	}
	entry.boot, entry.booted = f.boot, true
	if u.det != nil {
		if f.kind == kindPong {
			u.det.pong(entry, f.seq, now) // the RTT, before the proof of life
		}
		u.det.heard(entry, now, fx)
	}
	if u.spans != nil && f.flow != 0 {
		fx.rx = append(fx.rx, reception{f: f}) // a recv span, delivered or not
	}
	switch f.kind {
	case kindPing:
		u.stats.HeartbeatsRecv.Add(1)
		fx.send(f.from, kindPong, f.seq, nil)
	case kindPong:
		u.stats.HeartbeatsRecv.Add(1)
	case kindAck, kindAck | kindCustodyFlag:
		if u.rel != nil {
			u.rel.ack(entry, f.seq, f.kind&kindCustodyFlag != 0, now, fx)
		}
	case kindReliable | kindCustodyFlag:
		if u.rel != nil && u.rel.cus != nil {
			return true
		}
		// Without custody this node cannot vouch for the payload: the
		// offer is a plain reliable frame here (custody.go).
		fallthrough
	case kindReliable:
		// Ack first, duplicates included: the sender needs the ack to
		// stop retransmitting whether or not we deliver.
		fx.push(outFrame{peer: f.from, kind: kindAck, seq: f.seq, offerAck: f.kind != kindReliable})
		if !entry.dup.fresh(f.boot, f.seq) {
			u.stats.refused(&entry.dup, f.seq)
			return false
		}
		fx.deliverUp(entry, f, size)
	case kindData:
		fx.deliverUp(entry, f, size)
	case kindAnnounce, kindProbe:
		if u.disco != nil {
			u.disco.frame(f, src, now, fx)
		}
	case kindLeave:
		if u.disco != nil {
			u.disco.frame(f, src, now, fx)
		} else if u.det != nil {
			// No membership engine, but the peer said goodbye: treat it as
			// instantly dead so the diffusion layer repairs now rather than
			// after DeadAfter of silence.
			u.stats.LeavesRecv.Add(1)
			u.det.forceDead(entry, now, fx)
		}
	}
	return false
}

// acceptOffer finishes a custody offer with the lock released, then enters
// again and owes its ack in fx. Durable accept BEFORE the held ack: the
// sender discharges its custody on it, so it must mean the payload is safe
// here. held-but-not-fresh covers lost acks: re-acked, not re-delivered. A
// payload this node cannot read it cannot vouch for either; its plain ack
// parks the offer at the sender, which keeps custody, instead of leaving
// it a window slot for ever.
func (u *UDP) acceptOffer(f frame, size int, fx *effects) (now time.Duration) {
	ack, held, fresh := uint8(kindAck), false, false
	if message.Check(f.payload) != nil {
		u.stats.RecvDropped.Add(1)
	} else if held, fresh = u.rel.cus.Accept(f.from, message.PeekID(f.payload), f.payload); held {
		ack |= kindCustodyFlag
	} else {
		u.stats.CustodyRejected.Add(1)
		return u.enter()
	}
	now = u.enter()
	if entry := u.peers[f.from]; entry != nil && !u.closed {
		fx.push(outFrame{peer: f.from, kind: ack, seq: f.seq, offerAck: !held})
		if fresh {
			fx.deliverUp(entry, f, size)
		}
	}
	return now
}

// Close shuts the endpoint down — timer, engines, socket — and waits for
// the reader goroutine to exit. It is idempotent; Sends after Close
// return ErrClosed. Pending custody offers are not released: the custody
// queue still holds the data, and a restart re-offers it.
func (u *UDP) Close() error {
	u.peersMu.Lock()
	if u.closed {
		u.peersMu.Unlock()
		return nil
	}
	u.closed = true
	if u.timer != nil {
		u.timer.Cancel()
	}
	u.peersMu.Unlock()
	// Frames a cork is holding — a Leave just sent, acks awaiting the
	// consumer's Uncork — go out while there is still a socket.
	u.Uncork()
	err := u.wire.Close()
	if u.readerDone != nil {
		<-u.readerDone
	}
	return err
}
