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
	// Latency delays each outgoing datagram by this much before it is
	// written to the socket, emulating propagation plus airtime.
	Latency time.Duration
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
	// SendCustody offers are retransmitted until the peer durably accepts
	// them, received offers are acked only after the Accept callback
	// persists them, and pending offers are re-sent the moment the
	// failure detector hears a neighbor again. Pair with Liveness for the
	// recovery re-offers.
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
	// timed is false for a bare endpoint — no engine, no injected latency —
	// whose entries then skip reading the clock.
	timed      bool
	readerDone chan struct{} // closed when the reader goroutine exits; nil without one

	// peersMu is the endpoint's one lock. It guards the neighbor table and
	// every engine — all of it state about peers — and is never held across
	// a socket call, a user callback or the custody Accept.
	peersMu sync.Mutex
	peerTable
	det     *detector
	rel     *reliable
	cus     *custodian
	disco   *discovery
	engines []engine // those of the four that are configured, in that order
	// The one timer, armed at timerAt (never when idle). timerGen tells a
	// firing that lost the race with a re-arm that it is stale.
	timer    sim.Timer
	timerAt  time.Duration
	timerGen uint64
	closed   bool
	// While corked, frames are not written but encoded into held, one
	// datagram per destination address in first-use order (Cork); corker
	// is set by the first Cork.
	corked, corker bool
	held           []heldDatagram
}

// heldDatagram is what a corked endpoint holds for one address: a framePool
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
			latency: cfg.Latency,
			blocked: map[uint32]bool{},
		},
	}
	pinned := make(map[uint32]netip.AddrPort, len(cfg.Neighbors))
	for id, addr := range cfg.Neighbors {
		a, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("transport: neighbor %d %q: %w", id, addr, err)
		}
		pinned[id] = addrPort(a)
		u.put(id, a, true)
	}
	now := clock.Now()
	if cfg.Liveness != nil {
		u.det = newDetector(*cfg.Liveness, cfg.Seed^int64(cfg.ID), u.ids, &u.stats, now)
		u.engines = append(u.engines, u.det)
	}
	if cfg.Reliable != nil {
		u.rel = newReliable(*cfg.Reliable, &u.stats)
		u.engines = append(u.engines, u.rel)
	}
	if cfg.Custody != nil {
		if cfg.Custody.Accept == nil {
			return nil, fmt.Errorf("transport: CustodyOptions requires Accept")
		}
		u.cus = newCustodian(*cfg.Custody, &u.stats)
		u.engines = append(u.engines, u.cus)
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
		u.disco, err = newDiscovery(*cfg.Discovery, cfg.ID, seeds, pinned, w.LocalAddr().String(),
			cfg.Seed^int64(cfg.ID), &u.stats, now)
		if err != nil {
			return nil, err
		}
		u.engines = append(u.engines, u.disco)
	}
	u.timed = len(u.engines) > 0 || u.latency > 0
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

// leave ends an entry: settle what the engines asked of each other, pass
// the frames through the impairment, hold them if the endpoint is corked or
// the entry delivers to a corking consumer, re-arm the timer, release the
// lock, and only then touch the socket and the user.
func (u *UDP) leave(fx *effects, now time.Duration) {
	u.settle(fx, now)
	u.admit(fx, &u.stats, now)
	if u.corked || (u.corker && fx.deliver) {
		u.hold(fx)
	}
	if !u.closed {
		u.rearm(now)
	}
	u.peersMu.Unlock()
	u.perform(fx)
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
			if tr.state == PeerAlive && u.cus != nil {
				u.cus.reoffer(tr.peer, now, fx)
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
			switch op.kind {
			case opAdd:
				u.put(op.peer, net.UDPAddrFromAddrPort(op.addr), false)
				u.det.add(op.peer, now)
			case opRemove:
				if u.drop(op.peer) {
					u.det.remove(op.peer)
					u.forgetPeer(op.peer)
				}
			case opForget:
				u.forgetPeer(op.peer)
			case opRefresh:
				u.det.add(op.peer, now)
			case opForceDead:
				u.det.forceDead(op.peer, now, fx)
			}
		}
		fx.ops = fx.ops[:0]
	}
}

// forgetPeer drops retransmission state toward a peer that was removed or
// whose incarnation changed: its receive windows reset with its boot
// nonce, so old reliable frames and custody offers are noise at best.
// Custody data itself stays in the queue — NeighborRecovered replays it.
func (u *UDP) forgetPeer(id uint32) {
	if u.rel != nil {
		u.rel.dropPeer(id)
	}
	if u.cus != nil {
		u.cus.dropPeer(id)
	}
}

// nextDeadline is the earliest deadline of any engine.
func (u *UDP) nextDeadline() time.Duration {
	next := u.peerTable.nextDeadline()
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
// still only borrows its payload. A held datagram is written at bundleMax
// and may pass it only up to the path's cap, so a long corked stretch
// delays its first frames by a datagram's worth at most. One goroutine
// corks at a time; core.Node does, once per rt.Loop wake-up.
//
// The first Cork also makes the caller the endpoint's corking consumer, and
// that is a contract: it corks around every reception it is handed. From
// then on a reception that delivers holds its frames — the ack of a
// reliable frame, of a custody offer once Accept returned — for the
// consumer's next Uncork, so the acks of one wake-up share a datagram per
// upstream neighbor. A reception that delivers nothing (a duplicate, a
// pong, an ack) writes at once. A consumer that breaks the contract costs
// an ack one RTO: the retransmit is a duplicate, acked at once.
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
	u.release(&fx)
	u.peersMu.Unlock()
	u.perform(&fx)
}

// hold moves fx's frames into the held datagrams, leaving in fx only the
// datagrams that filled up.
func (u *UDP) hold(fx *effects) {
	full, crossed := 0, false
	for i := 0; i < fx.n; i++ {
		f := *fx.at(i)
		d := u.heldFor(f.addr)
		start := len(*d.buf)
		b := u.encode(append(*d.buf, 0, 0), &f)
		if d.frames > 0 && (len(b) > d.limit || start > bundleMax) {
			// f does not fit, or this entry took the datagram past bundleMax:
			// it goes now and f starts the next. (One per frame: full ≤ i.)
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
		crossed = crossed || (d.limit > bundleMax && len(b) > bundleMax)
	}
	fx.truncate(full)
	if crossed {
		// The cap allowed more, so the frame that crossed bundleMax rode
		// along, and its datagram goes now.
		u.held = slices.DeleteFunc(u.held, func(d heldDatagram) bool {
			past := d.limit > bundleMax && len(*d.buf) > bundleMax
			if past {
				fx.push(d.out())
			}
			return past
		})
	}
}

// heldFor finds or starts the held datagram for addr.
func (u *UDP) heldFor(addr netip.AddrPort) *heldDatagram {
	for i := range u.held {
		if u.held[i].addr == addr {
			return &u.held[i]
		}
	}
	u.held = append(u.held, newHeld(addr))
	return &u.held[len(u.held)-1]
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

// release moves every held datagram into fx, to be written by perform.
func (u *UDP) release(fx *effects) {
	for i := range u.held {
		fx.push(u.held[i].out())
	}
	u.held = u.held[:0]
}

// perform does, with the lock released, what an entry decided under it:
// frames to the wire, then callbacks, then the delivery upcall.
func (u *UDP) perform(fx *effects) {
	if fx.span {
		u.span(telemetry.Recv, fx.rx.from, fx.rx.payload)
	}
	if fx.n > 0 {
		pooled := framePool.Get().(*[]byte)
		b := *pooled
		for i := 0; i < fx.n; i++ {
			f := fx.at(i)
			if f.pooled != nil {
				u.write(f.payload, f.addr, f.frames)
				framePool.Put(f.pooled)
				continue
			}
			b = u.encode(b[:0], f)
			u.write(b, f.addr, 1)
		}
		*pooled = b // keep what it grew to
		framePool.Put(pooled)
	}
	for _, call := range fx.calls {
		call()
	}
	if fx.deliver {
		u.stats.onRecv(fx.rxSize)
		u.deliver(fx.rx.from, slices.Clone(fx.rx.payload))
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

// framePool holds the buffers frames are encoded into, by perform and by
// hold; entries run on several goroutines at once, so the endpoint cannot
// own just one. The wire is done with a buffer when its write returns.
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

// Neighbors returns the current neighbor-table IDs — configured plus
// discovery-promoted — as a fresh slice.
func (u *UDP) Neighbors() []uint32 {
	u.peersMu.Lock()
	defer u.peersMu.Unlock()
	return append([]uint32{}, u.ids...)
}

// Members returns the endpoint's full membership view: every neighbor-
// table row (with per-peer traffic counters and liveness health) merged
// with every discovery record, sorted by ID. Without discovery it is just
// the configured table.
func (u *UDP) Members() []Member {
	now := u.enter()
	defer u.peersMu.Unlock()
	var health map[uint32]PeerHealth
	if u.det != nil {
		health = u.det.snapshot(now)
	}
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
		m.Health, m.HasHealth = health[id]
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
	if u.rel == nil {
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

// Block partitions this endpoint from peer: frames to and from it are
// dropped (and counted in Stats.PartitionDropped) until Unblock. The
// failure detector keeps probing through the partition, so it will mark
// the peer suspect and then dead.
func (u *UDP) Block(peer uint32) {
	u.peersMu.Lock()
	u.blocked[peer] = true
	u.peersMu.Unlock()
}

// Unblock heals a partition created by Block.
func (u *UDP) Unblock(peer uint32) {
	u.peersMu.Lock()
	delete(u.blocked, peer)
	u.peersMu.Unlock()
}

// SetBlocked replaces the whole blocked-peer set (chaos harness: one call
// describes the partition).
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
// unicast payloads go through the acked/retransmitted path; broadcast is
// always fire-and-forget (flooding is its own redundancy).
func (u *UDP) Send(dst uint32, payload []byte) error {
	if len(payload) > maxPayload {
		u.stats.SendErrors.Add(1)
		return ErrTooLarge
	}
	reliable := u.rel != nil && dst != Broadcast
	if reliable {
		payload = slices.Clone(payload) // the engine keeps it for retransmission
	}
	var fx effects
	var err error
	now := u.enter()
	switch {
	case u.closed:
		err = ErrClosed
	case dst == Broadcast:
		for _, id := range u.ids {
			fx.send(id, kindData, 0, payload)
		}
	case u.peers[dst] == nil:
		u.stats.SendErrors.Add(1)
		err = fmt.Errorf("transport: %d is not a neighbor of %d", dst, u.id)
	case reliable:
		u.rel.send(dst, payload, now, &fx)
	default:
		fx.send(dst, kindData, 0, payload)
	}
	u.leave(&fx, now)
	return err
}

// SendCustody offers custody of a diffusion payload to neighbor dst
// (core.CustodyLink). The offer is retransmitted with capped backoff —
// and re-sent on neighbor recovery — until dst durably accepts it; the
// CustodyOptions.Release callback then fires. Requires the Custody
// option.
func (u *UDP) SendCustody(dst uint32, id message.ID, payload []byte) error {
	if u.cus == nil {
		return fmt.Errorf("transport: custody transfer not enabled")
	}
	if len(payload) > maxPayload {
		u.stats.SendErrors.Add(1)
		return ErrTooLarge
	}
	buf := slices.Clone(payload)
	var fx effects
	var err error
	now := u.enter()
	switch {
	case u.peers[dst] == nil:
		u.stats.SendErrors.Add(1)
		err = fmt.Errorf("transport: %d is not a neighbor of %d", dst, u.id)
	case u.closed:
		err = ErrClosed
	default:
		u.cus.send(dst, id, buf, now, &fx)
	}
	u.leave(&fx, now)
	return err
}

// CustodyPending returns the number of outstanding custody offers
// (introspection; 0 without the Custody option).
func (u *UDP) CustodyPending() int {
	if u.cus == nil {
		return 0
	}
	u.peersMu.Lock()
	defer u.peersMu.Unlock()
	return u.cus.pending()
}

// readLoop feeds the socket's datagrams to receive until the socket
// closes.
func (u *UDP) readLoop(conn *net.UDPConn) {
	defer close(u.readerDone)
	buf := make([]byte, maxPayload+headerSize+traceExtSize)
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
		u.receive(buf[:n], netip.AddrPortFrom(src.Addr().Unmap(), src.Port()))
	}
}

// receive is the reception entry: one datagram b from wire address src, a
// frame or a bundle of them. b is only read, and not after receive returns.
func (u *UDP) receive(b []byte, src netip.AddrPort) {
	if !isBundle(b) {
		u.receiveFrame(b, src)
		return
	}
	// Each frame is checked on its own, so those before a malformed tail
	// stand; a bundle of no frames is malformed too.
	for rest := b[bundleHeaderSize:]; ; {
		if len(rest) < bundlePrefixSize || int(binary.BigEndian.Uint16(rest)) > len(rest)-bundlePrefixSize {
			u.stats.RecvDropped.Add(1)
			return
		}
		n := bundlePrefixSize + int(binary.BigEndian.Uint16(rest))
		u.receiveFrame(rest[bundlePrefixSize:n], src)
		if rest = rest[n:]; len(rest) == 0 {
			return
		}
	}
}

// receiveFrame validates one frame and its sender, then dispatches on kind.
// Any valid frame from a table member counts as proof of life for the
// failure detector.
func (u *UDP) receiveFrame(b []byte, src netip.AddrPort) {
	f, err := decodeFrame(b)
	if err != nil || f.from == u.id {
		u.stats.RecvDropped.Add(1)
		return
	}
	var fx effects
	now := u.enter()
	offer := !u.closed && u.onFrame(f, src, len(b), now, &fx)
	u.leave(&fx, now)
	if offer {
		u.acceptOffer(f, len(b))
	}
}

// onFrame handles one decoded frame under the lock. It reports true for a
// custody offer this node can vouch for, which the caller must put through
// Accept — an fsync — with the lock released.
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
	if u.det != nil {
		if f.kind == kindPong {
			u.det.pong(f.from, f.seq, now) // the RTT, before the proof of life
		}
		u.det.heard(f.from, now, fx)
	}
	fx.rx, fx.span = f, u.spans != nil && f.flow != 0
	switch f.kind {
	case kindPing:
		u.stats.HeartbeatsRecv.Add(1)
		fx.send(f.from, kindPong, f.seq, nil)
	case kindPong:
		u.stats.HeartbeatsRecv.Add(1)
	case kindAck:
		if u.rel != nil {
			u.rel.ack(f.from, f.seq, now, fx)
		}
	case kindReliable:
		// Ack first, duplicates included: the sender needs the ack to
		// stop retransmitting whether or not we deliver.
		fx.send(f.from, kindAck, f.seq, nil)
		if !entry.relDup.fresh(f.boot, f.seq) {
			u.stats.DupSuppressed.Add(1)
			return false
		}
		fx.deliverUp(entry, f, size)
	case kindData:
		fx.deliverUp(entry, f, size)
	case kindCustody:
		if u.cus != nil {
			return true
		}
		// This node runs without custody, so it cannot vouch for the
		// payload and must not ack — responsibility stays with the
		// sender, which keeps the offer pending (visible in its /custody
		// pending count) and retransmits at the capped backoff. The data
		// itself is still delivered, deduplicated by offer seq so those
		// retransmits cannot double-deliver: a mixed deployment makes
		// progress, it just cannot drain upstream custody queues. Enable
		// custody at this node (memory-only suffices) to complete
		// transfers.
		if !entry.cusDup.fresh(f.boot, f.seq) {
			u.stats.DupSuppressed.Add(1)
			return false
		}
		fx.deliverUp(entry, f, size)
	case kindCustodyAck:
		if u.cus != nil {
			u.cus.ack(f.from, f.seq, fx)
		}
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
			u.det.forceDead(f.from, now, fx)
		}
	}
	return false
}

// acceptOffer finishes a custody offer with the lock released. Durable
// accept BEFORE the ack: the sender discharges its custody on our
// acknowledgment, so the ack must mean the payload is safe here.
// held-but-not-fresh covers lost acks: re-acked, not re-delivered.
func (u *UDP) acceptOffer(f frame, size int) {
	if message.Check(f.payload) != nil {
		u.stats.RecvDropped.Add(1)
		return
	}
	held, fresh := u.cus.cfg.Accept(f.from, message.PeekID(f.payload), f.payload)
	if !held {
		u.stats.CustodyRejected.Add(1)
		return
	}
	var fx effects
	now := u.enter()
	if entry := u.peers[f.from]; entry != nil && !u.closed {
		fx.send(f.from, kindCustodyAck, f.seq, nil)
		if fresh {
			fx.deliverUp(entry, f, size)
		}
	}
	u.leave(&fx, now)
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
	// Frames a cork is holding — a Leave just sent, acks awaiting the
	// consumer's Uncork — go out while there is still a socket.
	var fx effects
	u.release(&fx)
	u.peersMu.Unlock()
	u.perform(&fx)
	err := u.wire.Close()
	if u.readerDone != nil {
		<-u.readerDone
	}
	return err
}
