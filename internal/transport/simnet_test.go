package transport

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"diffusion/internal/sim"
)

// simNet is the virtual-time harness the protocol tests run on: endpoints
// built by newUDP — the same driver and engines ListenUDP builds — over
// one sim.Engine and an in-memory wire, all on the test's goroutine.
// Time moves only when a test calls run, so "three announce intervals"
// is exact, and a run is a pure function of the seeds and the schedule.
type simNet struct {
	t      testing.TB
	sched  *sim.Engine
	delay  time.Duration // one-way wire delay
	nodes  map[netip.AddrPort]*UDP
	peers  map[netip.AddrPort]*simPeer
	frames int // datagrams put on the wire
	wire   []simDatagram
	salt   uint32 // xored into every endpoint's boot nonce
}

// simDatagram is one datagram as the wire saw it.
type simDatagram struct {
	to netip.AddrPort
	b  []byte
}

func newSimNet(t testing.TB) *simNet {
	return &simNet{
		t:     t,
		sched: sim.New(1),
		delay: time.Millisecond,
		nodes: map[netip.AddrPort]*UDP{},
		peers: map[netip.AddrPort]*simPeer{},
	}
}

// simAddr is link ID id's address on the virtual wire.
func simAddr(id uint32) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(id >> 16), byte(id >> 8), byte(id)}), 7000)
}

// loopAddr is link ID id's address on a virtual loopback path, whose cap is
// the host's loopback MTU rather than bundleMax.
func loopAddr(id uint32) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, byte(id >> 16), byte(id >> 8), byte(id)}), 7000)
}

// simWire is one endpoint's attachment to the virtual wire.
type simWire struct {
	net  *simNet
	addr netip.AddrPort
}

func (w *simWire) LocalAddr() net.Addr { return net.UDPAddrFromAddrPort(w.addr) }
func (w *simWire) Close() error        { return nil }

func (w *simWire) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	n := w.net
	n.frames++
	cp := append([]byte(nil), b...)
	n.wire = append(n.wire, simDatagram{to: to, b: cp})
	n.sched.After(n.delay, func() {
		if u := n.nodes[to]; u != nil {
			u.receive(cp, w.addr)
		} else if p := n.peers[to]; p != nil {
			p.receive(cp)
		}
	})
	return len(b), nil
}

// endpoint attaches an endpoint with link ID cfg.ID at simAddr(cfg.ID).
func (n *simNet) endpoint(cfg UDPConfig) *UDP {
	n.t.Helper()
	return n.endpointAt(cfg, simAddr(cfg.ID))
}

// endpointAt attaches an endpoint with link ID cfg.ID at addr. Its boot
// nonce is fixed (the ID, xor the net's salt), as is everything else a
// live endpoint takes from the environment.
func (n *simNet) endpointAt(cfg UDPConfig, addr netip.AddrPort) *UDP {
	n.t.Helper()
	if cfg.Deliver == nil {
		cfg.Deliver = func(uint32, []byte) {}
	}
	w := &simWire{net: n, addr: addr}
	u, err := newUDP(cfg, n.sched, w, cfg.ID^n.salt)
	if err != nil {
		n.t.Fatal(err)
	}
	n.nodes[w.addr] = u
	return u
}

// run advances virtual time by d, executing everything that falls due.
func (n *simNet) run(d time.Duration) { n.sched.RunUntil(n.sched.Now() + d) }

// neighbors is the Neighbors table entry for peers: their simAddr.
func neighbors(ids ...uint32) map[uint32]string {
	m := map[uint32]string{}
	for _, id := range ids {
		m[id] = simAddr(id).String()
	}
	return m
}

// pair attaches endpoints 1 and 2 as each other's configured neighbor.
func (n *simNet) pair(aCfg, bCfg UDPConfig) (a, b *UDP, ca, cb *collector) {
	return n.pairAt(simAddr, aCfg, bCfg)
}

// pairAt is pair with endpoint id at addr(id).
func (n *simNet) pairAt(addr func(uint32) netip.AddrPort, aCfg, bCfg UDPConfig) (a, b *UDP, ca, cb *collector) {
	ca, cb = &collector{}, &collector{}
	aCfg.ID, aCfg.Deliver, aCfg.Neighbors = 1, ca.deliver, map[uint32]string{2: addr(2).String()}
	bCfg.ID, bCfg.Deliver, bCfg.Neighbors = 2, cb.deliver, map[uint32]string{1: addr(1).String()}
	return n.endpointAt(aCfg, addr(1)), n.endpointAt(bCfg, addr(2)), ca, cb
}

// simPeer is a scripted peer: it hand-crafts frames (boot nonces, digests,
// peering bits) straight into an endpoint's receive entry and records
// what comes back, to pin down the protocol state machine.
type simPeer struct {
	net   *simNet
	id    uint32
	boot  uint32
	addr  netip.AddrPort
	inbox []frame
}

func (n *simNet) peer(id, boot uint32) *simPeer {
	p := &simPeer{net: n, id: id, boot: boot, addr: simAddr(id)}
	n.peers[p.addr] = p
	return p
}

func (p *simPeer) receive(b []byte) {
	f, err := decodeFrame(b)
	if err != nil {
		p.net.t.Errorf("peer %d got a malformed frame: %v", p.id, err)
		return
	}
	p.inbox = append(p.inbox, f)
}

// send delivers one frame to u now.
func (p *simPeer) send(u *UDP, kind uint8, payload []byte) {
	u.receive(appendFrame(nil, kind, p.id, Broadcast, p.boot, 0, 0, 0, payload), p.addr)
}

// announce sends an announce with this peer's own address, the given
// digest and flags (annFlagPeered, annFlagLonely).
func (p *simPeer) announce(u *UDP, flags byte, digest uint64, gossip ...gossipEntry) {
	a := announce{flags: flags, digest: digest, httpPort: 8080, addr: p.addr.String(), gossip: gossip}
	p.send(u, kindAnnounce, encodeAnnounce(a))
}

// take removes and returns the oldest received frame of the given kind.
func (p *simPeer) take(kind uint8) (frame, bool) {
	for i, f := range p.inbox {
		if f.kind == kind {
			p.inbox = append(p.inbox[:i], p.inbox[i+1:]...)
			return f, true
		}
	}
	return frame{}, false
}

// takeAnnounce removes and returns the oldest received announce.
func (p *simPeer) takeAnnounce() (announce, bool) {
	f, ok := p.take(kindAnnounce)
	if !ok {
		return announce{}, false
	}
	a, err := decodeAnnounce(f.payload)
	if err != nil {
		p.net.t.Fatalf("peer %d got a malformed announce: %v", p.id, err)
	}
	return a, true
}

// memberOf finds one row of the endpoint's membership view.
func memberOf(u *UDP, id uint32) Member {
	for _, m := range u.Members() {
		if m.ID == id {
			return m
		}
	}
	return Member{Membership: "absent"}
}

// memberLog records OnMember callbacks as "peer:event" strings.
type memberLog struct{ evs []string }

func (l *memberLog) on(peer uint32, ev MemberEvent) {
	l.evs = append(l.evs, fmt.Sprintf("%d:%s", peer, ev))
}

func (l *memberLog) has(want string) bool {
	for _, e := range l.evs {
		if e == want {
			return true
		}
	}
	return false
}
