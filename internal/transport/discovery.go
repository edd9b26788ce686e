package transport

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"time"
)

// This file implements the UDP endpoint's membership subsystem: neighbor
// discovery, runtime join/leave, and a degree cap with deterministic
// cluster-head preference. The paper's testbed had hand-configured
// neighbor lists; a mesh that bootstraps itself needs the rules below.
// Each convergence rule is kept because the discovery ledger
// (discovery_ledger_test.go) measured worse without it. Three frame
// kinds ride the existing v2 framing:
//
//   - announce: "here I am" — the node's advertised UDP address, HTTP
//     control-plane port, key-vocabulary digest, two flag bits (peering:
//     "I have you as my neighbor"; lonely: "I have no mutual link") and a
//     gossip sample of other known peers. Boot-nonce-scoped like every
//     frame, so a restart is recognized as a fresh incarnation.
//   - probe: "who are you?" — asks the target for a unicast announce.
//   - leave: "I am going away" — demote me now, not after the failure
//     detector's timeouts.
//
// A node starts from one or more -seed addresses, announced to every
// round; everything else spreads by gossip. A gossip first sighting is a
// candidate, and each round, while below the cap, probes the few
// candidates it has waited longest to probe. Only a full announce, with
// its digest and boot nonce, promotes a peer to a full neighbor —
// heartbeats, reliable unicast, custody re-offers — and death or leave
// demotes it through the same core.NeighborDead/NeighborRecovered hooks
// as configured peers.
//
// The degree cap bounds flooding cost (CCIC-WSN's cluster argument).
// Slots go by cluster-head score, a splitmix64 hash of (node ID, boot
// nonce) that every node computes alike from the wire header, re-rolled
// each restart, LEACH-style. Score decides which links form, never breaks
// working ones: a better candidate may evict only a one-way placeholder,
// since letting score evict mutual links makes every node chase the same
// top scorers and the churn never settles.
//
// Promotion is a two-way handshake, carried by the peering bit: a
// promoted peer that does not set it within three announce intervals is
// demoted, and one that clears it has dropped us. Either side that gives
// up tells the other with a bit-clear announce, and retries only after a
// backoff that doubles per failure and then quiesces.
//
// Score order starves the lowest-scored nodes once the mesh saturates.
// A node with no mutual link therefore flags every announce lonely, and
// a full recipient admits it over its cheapest slot (a mutual one as the
// last resort) at most once per interval, protecting the rescued slot
// from score eviction, HyParView-style.

// MemberEvent classifies a membership change surfaced through
// DiscoveryConfig.OnMember.
type MemberEvent uint8

// Membership events.
const (
	// MemberJoined: a discovered peer was promoted to full neighbor.
	MemberJoined MemberEvent = iota
	// MemberRejoined: a promoted peer re-announced under a new boot nonce
	// — same identity, fresh incarnation, stale link state dropped.
	MemberRejoined
	// MemberLeft: the peer sent an explicit leave frame.
	MemberLeft
	// MemberEvicted: the degree cap displaced the peer in favor of one
	// with a better cluster-head score.
	MemberEvicted
	// MemberDemoted: the peering handshake failed — the peer never
	// promoted us back, or stopped listing us as its neighbor.
	MemberDemoted
	// MemberDead: the failure detector declared the discovered peer dead
	// and it was removed from the neighbor table.
	MemberDead
	// MemberQuarantined: the peer's key-vocabulary digest does not match
	// ours; it is recorded but never promoted.
	MemberQuarantined
)

// String renders the event.
func (e MemberEvent) String() string {
	if int(e) < len(memberEventNames) {
		return memberEventNames[e]
	}
	return "unknown"
}

var memberEventNames = [...]string{"joined", "rejoined", "left", "evicted", "demoted", "dead", "quarantined"}

// Membership table states, as reported in Member.Membership /
// Member.MembershipCode. Neighbor means the peer is in the live neighbor
// table; everything else is a discovery record only.
const (
	MembershipCandidate uint8 = iota
	MembershipNeighbor
	MembershipQuarantined
	MembershipLeft
	MembershipDead
)

// memberState is the discovery record's lifecycle state (the exported
// Membership* codes, typed for internal use).
type memberState uint8

const (
	stCandidate   = memberState(MembershipCandidate)
	stNeighbor    = memberState(MembershipNeighbor)
	stQuarantined = memberState(MembershipQuarantined)
	stLeft        = memberState(MembershipLeft)
	stDead        = memberState(MembershipDead)
)

func (s memberState) String() string {
	if int(s) < len(memberStateNames) {
		return memberStateNames[s]
	}
	return "unknown"
}

var memberStateNames = [...]string{"candidate", "neighbor", "quarantined", "left", "dead"}

// Member is one row of the endpoint's membership view: every peer in the
// live neighbor table plus every discovery record not (or no longer) in
// it.
type Member struct {
	ID             uint32
	Addr           string // UDP address ("" if never learned)
	HTTPAddr       string // control-plane address derived from the announce ("" if unknown)
	Origin         string // "configured" | "discovered"
	Membership     string // "neighbor" | "candidate" | "quarantined" | "left" | "dead"
	MembershipCode uint8  // the Membership* constant behind Membership
	Peered         bool   // the peer currently lists us as its neighbor
	Score          uint64 // cluster-head score for the peer's current boot
	Boot           uint32 // the peer's boot nonce from its last full announce
	HasBoot        bool   // Boot is meaningful (probes carry no nonce)
	DataRecv       uint64 // payload frames delivered from this peer
	DataSent       uint64 // payload frames sent toward this peer
	Health         PeerHealth
	HasHealth      bool
}

// DiscoveryConfig parameterizes the membership subsystem. Requires the
// Liveness option: promotion without a failure detector would leave dead
// discovered neighbors in the table forever.
type DiscoveryConfig struct {
	// Seeds are UDP addresses announced to every interval regardless of
	// membership — the bootstrap entry points. May be empty on the seed
	// node itself, which just listens.
	Seeds []string
	// Advertise is the UDP address announced to peers (default: the bound
	// address — correct on loopback and when listening on a routable IP).
	// Give a literal IP:port: receivers resolve no names and fall back to
	// the datagram's source address.
	Advertise string
	// HTTPPort is the node's control-plane port, carried in announces so
	// peers can derive the /neighbors address for mesh walking (0 = none).
	HTTPPort uint16
	// VocabDigest is the node's key-vocabulary digest (VocabDigest over
	// the registration-ordered key names). Announcing peers with a
	// different digest are quarantined, never promoted: attribute keys are
	// numbered in registration order, so a mismatched vocabulary would
	// silently mis-parse every named interest.
	VocabDigest uint64
	// Interval is the announce period (default 1s).
	Interval time.Duration
	// DegreeCap bounds configured + discovered neighbors (default 8).
	// Configured peers count toward the cap but are never evicted.
	DegreeCap int
	// OnMember, when set, is invoked on membership changes, after the
	// endpoint has released its lock, from whichever goroutine made the
	// change happen (the socket reader or the timer). A single-threaded
	// consumer posts onto its own loop.
	OnMember func(peer uint32, ev MemberEvent)
}

// fill applies defaults.
func (c *DiscoveryConfig) fill() {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.DegreeCap <= 0 {
		c.DegreeCap = 8
	}
}

// VocabDigest hashes an ordered key vocabulary (FNV-1a 64 with length
// separators). Attribute keys are numbered by registration order, so two
// nodes interoperate only when their ordered vocabularies are identical —
// this digest rides in every announce to enforce exactly that.
func VocabDigest(keys []string) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, k := range keys {
		for i := 0; i < len(k); i++ {
			h ^= uint64(k[i])
			h *= prime64
		}
		h ^= 0xff // separator: ["ab"] and ["a","b"] must differ
		h *= prime64
	}
	return h
}

// splitmix64 is the finalizer of the splitmix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clusterScore is a peer's deterministic cluster-head score: any two
// nodes compute the same value from the wire header alone. Folding the
// boot nonce in re-rolls the score each restart, rotating headship
// LEACH-style so no node stays a hot spot across its lifetime. The input
// packs (id, boot) injectively and splitmix64 is a bijection, so two
// distinct peers never tie.
func clusterScore(id, boot uint32) uint64 {
	return splitmix64(uint64(id)<<32 | uint64(boot))
}

// Announce payload wire format (version 1):
//
//	[0]     codec version
//	[1]     flags (bit0: peering — "I have you as my neighbor")
//	[2:10]  vocabulary digest, big endian
//	[10:12] HTTP control-plane port, big endian (0 = none)
//	[12:14] 1000, big endian (a retired energy level; ignored on receipt)
//	[14]    advertised-UDP-address length, then that many bytes
//	[...]   gossip count, then per entry: peer ID u32 BE,
//	        address length byte, address bytes
const (
	discoVersion  = 1
	annFlagPeered = 1 << 0 // "I have you as my neighbor"
	annFlagLonely = 1 << 1 // "I have no peered neighbors at all — admit me"
)

// announce is a decoded announce payload.
type announce struct {
	flags    byte
	digest   uint64
	httpPort uint16
	addr     string // advertised UDP address
	gossip   []gossipEntry
}

// gossipEntry is one peer an announce passes on: always a literal
// IP:port. On the wire it is text; a received entry that does not parse
// as a literal is dropped by the decoder, so nothing downstream can be
// talked into resolving a name.
type gossipEntry struct {
	id   uint32
	addr netip.AddrPort
}

// encodeAnnounce renders a to wire format. An Advertise longer than 255
// bytes cannot be encoded; the constructor rejects it.
func encodeAnnounce(a announce) []byte {
	b := make([]byte, 0, 16+len(a.addr)+len(a.gossip)*32)
	b = append(b, discoVersion, a.flags)
	b = binary.BigEndian.AppendUint64(b, a.digest)
	b = binary.BigEndian.AppendUint16(b, a.httpPort)
	b = binary.BigEndian.AppendUint16(b, 1000)
	b = append(b, byte(len(a.addr)))
	b = append(b, a.addr...)
	b = append(b, byte(len(a.gossip)))
	for _, g := range a.gossip {
		b = binary.BigEndian.AppendUint32(b, g.id)
		at := len(b)
		b = g.addr.AppendTo(append(b, 0))
		b[at] = byte(len(b) - at - 1)
	}
	return b
}

// parseLiteral reads an address that arrived from the network: a literal
// IP:port or nothing. Names are refused — resolving one would park the
// caller on a DNS round-trip at any stranger's request — and so are IPv6
// zones, which only mean something on the host that wrote them.
func parseLiteral(s string) (netip.AddrPort, bool) {
	ap, err := netip.ParseAddrPort(s)
	return ap, err == nil && ap.Port() != 0 && ap.Addr().Zone() == ""
}

// decodeAnnounce parses a wire announce. Nothing in the result aliases b.
func decodeAnnounce(b []byte) (announce, error) {
	var a announce
	if len(b) < 16 {
		return a, fmt.Errorf("transport: announce too short (%d bytes)", len(b))
	}
	if b[0] != discoVersion {
		return a, fmt.Errorf("transport: announce version %d, want %d", b[0], discoVersion)
	}
	s := string(b)
	a.flags = b[1]
	a.digest = binary.BigEndian.Uint64(b[2:10])
	a.httpPort = binary.BigEndian.Uint16(b[10:12])
	alen := int(b[14])
	p := 15
	if len(b) < p+alen+1 {
		return a, fmt.Errorf("transport: announce address truncated")
	}
	a.addr = s[p : p+alen]
	p += alen
	count := int(b[p])
	p++
	// Every entry takes at least 5 bytes, so a count the payload cannot
	// hold is refused before anything is allocated for it.
	if len(b)-p < 5*count {
		return a, fmt.Errorf("transport: announce gossip truncated")
	}
	a.gossip = make([]gossipEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < p+5 {
			return a, fmt.Errorf("transport: announce gossip truncated")
		}
		id := binary.BigEndian.Uint32(b[p : p+4])
		glen := int(b[p+4])
		p += 5
		if len(b) < p+glen {
			return a, fmt.Errorf("transport: announce gossip truncated")
		}
		if ap, ok := parseLiteral(s[p : p+glen]); ok {
			a.gossip = append(a.gossip, gossipEntry{id: id, addr: ap})
		}
		p += glen
	}
	return a, nil
}

// discoRec is one peer's discovery record — the endpoint's view of a
// peer's announced identity and its place in the membership lifecycle.
// Times are clock readings (offsets from the endpoint's start).
type discoRec struct {
	id         uint32
	cfg        bool           // statically configured: pinned, never evicted or demoted
	addr       netip.AddrPort // zero until learned
	httpPort   uint16
	boot       uint32
	haveBoot   bool
	score      uint64
	state      memberState
	peered     bool          // peer's last announce this boot listed us as its neighbor
	protected  bool          // admitted via the loneliness override: immune to score eviction
	backoff    uint8         // consecutive failed handshakes, drives exponential retry damping
	promotedAt time.Duration // when we promoted it (handshake deadline base)
	retryAt    time.Duration // do not re-promote before this (handshake damping)
	lastHeard  time.Duration // last announce/probe from the peer
	lastReply  time.Duration // last rate-limited announce we sent it in response
	lastProbe  time.Duration // last solicitation we sent it (first sighting, if none)
	slot       int           // index in discovery.pool
}

// discoSend is one membership frame a step decided to send; flush renders
// the batch (gossip sample, loneliness flag) once the step's table changes
// are in.
type discoSend struct {
	dst    uint32 // 0 when the peer ID is unknown (header dst = Broadcast)
	addr   netip.AddrPort
	kind   uint8
	peered bool // announce peering bit
}

// discovery is one endpoint's membership engine (engine contract:
// engine.go). What it wants done to the neighbor table, the failure
// detector and the retransmission engines it says with table ops.
type discovery struct {
	cfg       DiscoveryConfig
	id        uint32 // this node
	stats     *Stats
	seeds     []netip.AddrPort // operator input, resolved once at start-up
	tab       *peerTable       // the neighbor table: its configured rows are pinned
	fixed     int              // how many configured rows it has, set at start-up
	advertise string
	self      netip.AddrPort // advertise, when it is a literal: a seed list may name this node too

	rng             *rand.Rand
	recs            map[uint32]*discoRec
	list            []*discoRec // the same records, in ID order when sorted
	sorted          bool
	pool            []*discoRec   // and in the order gossipSample's shuffles left them
	nbrs            []*discoRec   // promoted (not pinned) neighbors, oldest first
	lastLonelyEvict time.Duration // rate limit on loneliness-override evictions
	next            time.Duration // next announce round
}

// newDiscovery builds the engine; its first round is due at now. seeds
// are already resolved, tab holds the configured rows alone, local is the
// bound address.
func newDiscovery(cfg DiscoveryConfig, id uint32, seeds []netip.AddrPort, tab *peerTable,
	local string, seed int64, stats *Stats, now time.Duration) (*discovery, error) {
	cfg.fill()
	d := &discovery{
		cfg:             cfg,
		id:              id,
		stats:           stats,
		seeds:           seeds,
		tab:             tab,
		fixed:           len(tab.ids),
		advertise:       cfg.Advertise,
		rng:             rand.New(rand.NewSource(seed)),
		recs:            map[uint32]*discoRec{},
		lastLonelyEvict: longAgo,
		next:            now,
	}
	if d.advertise == "" {
		d.advertise = local
	}
	if len(d.advertise) > 255 {
		return nil, fmt.Errorf("transport: advertise address %q too long", d.advertise)
	}
	d.self, _ = netip.ParseAddrPort(d.advertise)
	return d, nil
}

// notify queues an OnMember callback.
func (d *discovery) notify(fx *effects, peer uint32, ev MemberEvent) {
	if d.cfg.OnMember != nil {
		fx.calls = append(fx.calls, func() { d.cfg.OnMember(peer, ev) })
	}
}

// nextDeadline is when the next announce round is due.
func (d *discovery) nextDeadline() time.Duration { return d.next }

// maxRecs caps the record table. Gossip entries and sender IDs are
// untrusted, so past the cap an unknown ID gets no record (counted in
// Stats.GossipRefused) until silent records expire. It sits well above
// the largest mesh the tests build (1000 nodes).
const maxRecs = 4096

// rec returns id's record, creating it on first sight; nil when the table
// is full.
func (d *discovery) rec(id uint32) *discoRec {
	r := d.recs[id]
	if r == nil {
		if len(d.recs) >= maxRecs {
			d.stats.GossipRefused.Add(1)
			return nil
		}
		r = &discoRec{id: id, lastReply: longAgo}
		if r.cfg = d.configured(id) != nil; r.cfg {
			r.state = stNeighbor
		}
		d.recs[id] = r
		d.list = append(d.list, r)
		d.sorted = false
		r.slot = len(d.pool)
		d.pool = append(d.pool, r)
	}
	return r
}

// byID returns every record in ID order. Records are appended as they are
// learned — gossip teaches dozens per round at fleet scale — and sorted
// here, when a walk needs the order.
func (d *discovery) byID() []*discoRec {
	if !d.sorted {
		slices.SortFunc(d.list, func(a, b *discoRec) int { return cmp.Compare(a.id, b.id) })
		d.sorted = true
	}
	return d.list
}

// tick is one announce round: one walk of the table in ID order that
// enforces handshake deadlines, expires stale records and picks whom to
// announce to and whom to probe, then the announces to pinned neighbors
// and seeds.
func (d *discovery) tick(now time.Duration, fx *effects) {
	d.next = now + d.cfg.Interval
	var notices, announces []discoSend
	var due [4]*discoRec // the least-recently-probed candidates, in ID order
	nDue := 0
	kept := d.list[:0]
	for _, r := range d.byID() {
		switch {
		case r.state != stNeighbor:
			if now < r.retryAt {
				// Inside its courtship retry window a record neither
				// expires nor is probed. Its silence is self-inflicted (we
				// stopped probing it, so it stopped replying), and deleting
				// it would wipe the escalating backoff counter; seed gossip
				// re-teaches the record moments later with a fresh counter,
				// and the saturation courtship loop the backoff exists to
				// damp starts over at the floor.
				break
			}
			if now-max(r.lastHeard, r.retryAt) > 10*d.cfg.Interval {
				// Non-neighbor records expire after prolonged silence so
				// the table tracks the mesh, not its history.
				delete(d.recs, r.id)
				d.swapPool(r.slot, len(d.pool)-1)
				d.pool = d.pool[:len(d.pool)-1]
				continue
			}
			if r.state != stCandidate || !r.addr.IsValid() {
				break
			}
			if nDue < len(due) {
				due[nDue] = r
				nDue++
				break
			}
			worst := 0
			for i := range due {
				if due[i].lastProbe > due[worst].lastProbe {
					worst = i
				}
			}
			if r.lastProbe <= due[worst].lastProbe {
				copy(due[worst:], due[worst+1:])
				due[len(due)-1] = r
			}
		case !r.cfg && !r.peered && now-r.promotedAt > 3*d.cfg.Interval:
			// Handshake deadline: a promoted peer that never peered back
			// within three intervals is full (we are below its cut) — stop
			// holding a one-way slot for it.
			d.demote(r, stCandidate, fx)
			r.retryAt = now + d.handshakeBackoff(r)
			d.stats.MemberDemotions.Add(1)
			d.notify(fx, r.id, MemberDemoted)
			if r.addr.IsValid() {
				// Tell the peer explicitly (bit clear): if it admitted us
				// in a race with this deadline, it frees its slot now
				// instead of waiting out its failure detector against our
				// heartbeat silence — the lag that otherwise keeps an
				// asymmetric pair oscillating.
				r.lastReply = now
				notices = append(notices, discoSend{dst: r.id, addr: r.addr, kind: kindAnnounce})
			}
		case r.addr.IsValid():
			// Announce to every neighbor — dynamic and configured — with
			// the peering bit set; that bit is the other side's proof the
			// handshake completed.
			announces = append(announces, discoSend{dst: r.id, addr: r.addr, kind: kindAnnounce, peered: true})
		}
		kept = append(kept, r)
	}
	clear(d.list[len(kept):])
	d.list = kept

	covered := func(a netip.AddrPort) bool {
		return slices.ContainsFunc(announces, func(s discoSend) bool { return s.addr == a })
	}
	for _, id := range d.tab.ids {
		if e := d.configured(id); e != nil && !covered(e.addr) {
			announces = append(announces, discoSend{dst: id, addr: e.addr, kind: kindAnnounce, peered: true})
		}
	}
	// Seeds are announced to every round regardless of membership: they
	// are the mesh's rendezvous points, and their gossip replies are what
	// spreads knowledge of everyone else.
	for _, seed := range d.seeds {
		if !covered(seed) && seed != d.self {
			announces = append(announces, discoSend{addr: seed, kind: kindAnnounce})
		}
	}
	sends := append(notices, announces...)
	// While below the cap, solicit announces from a few candidates per
	// round (oldest-probed first). Candidates learned from gossip only
	// become neighbors through a full announce — probes carry no digest
	// or boot nonce — so this is what turns gossip into edges.
	if d.room() > 0 {
		for _, r := range due[:nDue] {
			r.lastProbe = now
			sends = append(sends, discoSend{dst: r.id, addr: r.addr, kind: kindProbe})
		}
	}
	d.flush(sends, fx)
}

// room is the number of free neighbor slots under the degree cap.
func (d *discovery) room() int { return d.cfg.DegreeCap - d.fixed - len(d.nbrs) }

// configured returns id's table row if the operator pinned it, else nil.
func (d *discovery) configured(id uint32) *peerEntry {
	if e := d.tab.peers[id]; e != nil && e.configured {
		return e
	}
	return nil
}

// better reports whether a is preferred over b for a neighbor slot: the
// higher cluster-head score. Scores never tie and every node computes the
// same ones, so the mesh-wide order is total and agreed, and the matching
// converges instead of oscillating.
func better(a, b *discoRec) bool { return a.score > b.score }

// weakest returns the least-preferred evictable dynamic neighbor (nil
// when there is none). Configured neighbors are pinned by the operator,
// and loneliness-admitted ones are protected — evicting those would
// re-isolate the node the override just rescued. Unless includePeered is
// set, mutual links are off the table too: only one-way placeholder slots
// are offered up.
func (d *discovery) weakest(includePeered bool) *discoRec {
	var w *discoRec
	for _, r := range d.nbrs {
		if r.protected || r.peered && !includePeered {
			continue
		}
		if w == nil || better(w, r) {
			w = r
		}
	}
	return w
}

// promote makes r a full neighbor: peer table, failure detector,
// reliable/custody machinery all see it from here on.
func (d *discovery) promote(r *discoRec, now time.Duration, fx *effects) {
	r.state = stNeighbor
	r.promotedAt = now
	d.nbrs = append(d.nbrs, r)
	fx.ops = append(fx.ops, tableOp{kind: opAdd, peer: r.id, addr: r.addr})
	d.stats.MemberJoins.Add(1)
}

// Courtship damping schedule. A failed two-way handshake retries after
// 5 announce intervals, doubling per consecutive failure; after
// courtshipQuiesceAfter straight failures the peer is treated as
// saturated and the retry jumps to courtshipQuiesceIntervals — far past
// any plausible soft-state horizon, so the courtship effectively stops.
const (
	courtshipQuiesceAfter     = 3
	courtshipQuiesceIntervals = 5 << 10 // 5120 announce intervals
)

// handshakeBackoff returns the retry damping after a failed two-way
// handshake and escalates it for the next failure: 5 intervals, then 10,
// then 20, then the quiescent ceiling. Without the ceiling a sub-cap node
// bordering a saturated clique courts the same full peers forever —
// promote, hold the one-way slot three intervals, demote, retry — and
// every cycle purges its gradients (the demote is a NeighborDead to the
// core) while flooding announces. Quiescing is safe because the damped
// record is passive, not blind: the counter resets the moment the peer
// does reciprocate or returns with a new boot, and a peer that later
// frees a slot courts us itself — its peered announce bypasses retryAt
// via the peerWantsUs override in consider.
func (d *discovery) handshakeBackoff(r *discoRec) time.Duration {
	if r.backoff >= courtshipQuiesceAfter {
		return courtshipQuiesceIntervals * d.cfg.Interval
	}
	delay := 5 * d.cfg.Interval << r.backoff
	r.backoff++
	return delay
}

// demote takes neighbor r out of the table into the given record state,
// dropping its detector, reliable and custody state.
func (d *discovery) demote(r *discoRec, to memberState, fx *effects) {
	r.state = to
	r.peered = false
	r.protected = false
	d.nbrs = slices.DeleteFunc(d.nbrs, func(n *discoRec) bool { return n == r })
	fx.ops = append(fx.ops, tableOp{kind: opRemove, peer: r.id})
}

// consider decides whether candidate r earns a neighbor slot: promote
// into free room, or evict a strictly weaker dynamic neighbor.
// peerWantsUs (the announce carried the peering bit) overrides the
// handshake-damping retry window — if the peer already holds a slot for
// us, reciprocating immediately is what completes the handshake. lonely
// (the announce carried the loneliness flag) admits a peer the score
// order would starve: an isolated node evicts our weakest neighbor
// regardless of score, rate-limited to one such eviction per interval,
// and the rescued peer's slot is protected so a later high-score
// announce cannot re-isolate it. The evictee keeps its other links and
// is therefore not lonely itself, so the displacement terminates instead
// of cascading.
func (d *discovery) consider(r *discoRec, now time.Duration, peerWantsUs, lonely bool, fx *effects) (promoted bool, evicted *discoRec) {
	if now < r.retryAt && !peerWantsUs && !lonely {
		return false, nil
	}
	if d.room() > 0 {
		d.promote(r, now, fx)
		return true, nil
	}
	// Score eviction: a strictly better candidate may displace a one-way
	// placeholder, never a completed mutual link.
	w := d.weakest(false)
	protect := false
	if w == nil || !better(r, w) {
		if !lonely || now-d.lastLonelyEvict < d.cfg.Interval {
			return false, nil
		}
		// Loneliness override: admit the isolated peer over whatever slot
		// is cheapest — a placeholder if there is one, a mutual link as
		// the last resort (its holder keeps cap-1 other links and is not
		// itself lonely, so the displacement terminates).
		if w == nil {
			w = d.weakest(true)
		}
		if w == nil {
			return false, nil
		}
		d.lastLonelyEvict = now
		protect = true
	}
	d.demote(w, stCandidate, fx)
	w.retryAt = now + d.handshakeBackoff(w)
	d.stats.MemberEvictions.Add(1)
	d.promote(r, now, fx)
	r.protected = protect
	return true, w
}

// frame handles a membership frame; src is the datagram's wire source
// address.
func (d *discovery) frame(f frame, src netip.AddrPort, now time.Duration, fx *effects) {
	switch f.kind {
	case kindAnnounce:
		d.stats.AnnouncesRecv.Add(1)
		a, err := decodeAnnounce(f.payload)
		if err != nil {
			d.stats.RecvDropped.Add(1)
			return
		}
		d.onAnnounce(f.from, f.boot, a, src, now, fx)
	case kindProbe:
		d.stats.ProbesRecv.Add(1)
		d.onProbe(f.from, src, now, fx)
	case kindLeave:
		d.stats.LeavesRecv.Add(1)
		d.onLeave(f.from, fx)
	}
}

// onAnnounce is the heart of the membership protocol; see the file
// comment for the lifecycle it implements.
func (d *discovery) onAnnounce(from, boot uint32, a announce, src netip.AddrPort, now time.Duration, fx *effects) {
	addr, ok := parseLiteral(a.addr)
	if !ok {
		addr = src // unusable advertised address: fall back to the wire source
	}
	var sends []discoSend
	r := d.rec(from)
	if r == nil {
		return
	}
	r.lastHeard = now

	// Vocabulary gate: a peer whose ordered key vocabulary differs would
	// mis-parse every named interest we exchange. Record it, reply so it
	// quarantines us symmetrically, but never promote. (Configured peers
	// are exempt: the operator pinned them, and key-vocabulary state files
	// can legitimately differ transiently during a rolling restart.)
	if !r.cfg && a.digest != d.cfg.VocabDigest {
		wasNeighbor := r.state == stNeighbor
		if wasNeighbor {
			d.demote(r, stQuarantined, fx)
		}
		r.state = stQuarantined
		if wasNeighbor || r.boot != boot || !r.haveBoot {
			d.stats.MemberQuarantined.Add(1)
			d.notify(fx, from, MemberQuarantined)
		}
		r.boot, r.haveBoot = boot, true
		r.addr, r.httpPort = addr, a.httpPort
		if now-r.lastReply >= d.cfg.Interval/2 {
			r.lastReply = now
			sends = append(sends, discoSend{dst: from, addr: addr, kind: kindAnnounce})
		}
		d.flush(sends, fx)
		return
	}
	if r.state == stQuarantined {
		r.state = stCandidate // digest matches now: restarted with fixed keys
	}

	// Boot-nonce change: same identity, new incarnation. Its receive
	// windows and sequence spaces reset with the boot, so retransmitting
	// old reliable frames or custody offers at it is at best noise — drop
	// that state and give the detector a fresh grace window.
	if r.haveBoot && r.boot != boot {
		r.peered = false
		r.backoff = 0
		if r.state == stNeighbor {
			fx.ops = append(fx.ops, tableOp{kind: opRejoin, peer: from})
			r.promotedAt = now
			d.stats.MemberRejoins.Add(1)
			d.notify(fx, from, MemberRejoined)
		}
	}
	r.boot, r.haveBoot = boot, true
	r.score = clusterScore(from, boot)
	r.httpPort = a.httpPort
	peerWantsUs := a.flags&annFlagPeered != 0
	peerLonely := a.flags&annFlagLonely != 0
	if peerWantsUs {
		r.peered = true
		r.backoff = 0
	}
	if r.addr != addr {
		r.addr = addr
		if r.state == stNeighbor && !r.cfg {
			// Re-point the live table at the new address.
			fx.ops = append(fx.ops, tableOp{kind: opAdd, peer: from, addr: addr})
		}
	}

	promotedNow := false
	switch {
	case r.cfg:
		// Pinned by the operator: metadata refresh only.
	case r.state == stNeighbor:
		if !peerWantsUs && r.peered {
			// It held a slot for us and let it go (evicted us, or left and
			// came back smaller): symmetry is gone, drop it too. This is a
			// failed handshake from our side — escalate the same damping as
			// the deadline path, or a pair straddling a saturation boundary
			// re-courts at the floor forever.
			d.demote(r, stCandidate, fx)
			r.retryAt = now + d.handshakeBackoff(r)
			d.stats.MemberDemotions.Add(1)
			d.notify(fx, from, MemberDemoted)
		}
	default:
		promoted, evicted := d.consider(r, now, peerWantsUs, peerLonely, fx)
		if promoted {
			promotedNow = true
			d.notify(fx, from, MemberJoined)
			// The promotion announce (peering bit set) is what completes
			// the handshake — send it now, not at the next tick.
			r.lastReply = now
			sends = append(sends, discoSend{dst: from, addr: addr, kind: kindAnnounce, peered: true})
		}
		if evicted != nil {
			d.notify(fx, evicted.id, MemberEvicted)
			if evicted.addr.IsValid() {
				// Tell the evictee immediately (bit clear) so it frees its
				// slot for someone else instead of waiting out the deadline.
				evicted.lastReply = now
				sends = append(sends, discoSend{dst: evicted.id, addr: evicted.addr, kind: kindAnnounce})
			}
		}
	}

	// Gossip: first sighting of unknown peers. They enter as candidates,
	// queued behind the candidates tick has waited longest to probe; the
	// probe solicits their full announce, which is what can promote them.
	// Sampling every record — not just neighbors — is what lets
	// bottom-scored nodes find each other once the high-score slots fill.
	for _, g := range a.gossip {
		if g.id == d.id || g.id == Broadcast || g.id == from || d.recs[g.id] != nil {
			continue
		}
		nr := d.rec(g.id)
		if nr == nil {
			continue
		}
		nr.addr, nr.lastHeard, nr.lastProbe = g.addr, now, now
		d.stats.GossipLearned.Add(1)
	}

	// Rate-limited reply, so a pair of nodes converges in one exchange
	// instead of one announce interval per direction — skipped when the
	// promotion announce above already answered.
	if !promotedNow && now-r.lastReply >= d.cfg.Interval/2 {
		r.lastReply = now
		sends = append(sends, discoSend{
			dst: from, addr: addr, kind: kindAnnounce,
			peered: r.cfg || r.state == stNeighbor,
		})
	}
	d.flush(sends, fx)
}

// onProbe answers a solicitation with a unicast announce to the wire
// source. A probe proves the prober exists but carries no digest or boot
// nonce, so it can create a candidate record — never promote.
func (d *discovery) onProbe(from uint32, src netip.AddrPort, now time.Duration, fx *effects) {
	r := d.rec(from)
	if r == nil {
		return
	}
	r.lastHeard = now
	if !r.addr.IsValid() {
		r.addr = src
	}
	if now-r.lastReply >= d.cfg.Interval/2 {
		r.lastReply = now
		d.flush([]discoSend{{dst: from, addr: src, kind: kindAnnounce, peered: r.cfg || r.state == stNeighbor}}, fx)
	}
}

// onLeave handles a graceful departure: demote immediately instead of
// waiting out SuspectAfter/DeadAfter. A configured peer cannot be removed
// from the table, so it is force-marked dead in the detector — any later
// frame from it recovers it as usual.
func (d *discovery) onLeave(from uint32, fx *effects) {
	if d.configured(from) != nil {
		fx.ops = append(fx.ops, tableOp{kind: opForceDead, peer: from})
		return
	}
	r := d.recs[from]
	if r == nil {
		return
	}
	if r.state == stNeighbor {
		d.demote(r, stLeft, fx)
		d.stats.MemberDepartures.Add(1)
		d.notify(fx, from, MemberLeft)
	} else {
		r.state = stLeft
	}
}

// peerDead reacts to the failure detector declaring a peer dead: a
// discovered neighbor is removed from the live table (its slot frees up
// for someone alive), keeping only the discovery record. A re-announce —
// same or new boot — walks it back in through the normal promotion path.
func (d *discovery) peerDead(peer uint32, now time.Duration, fx *effects) {
	r := d.recs[peer]
	if r != nil && !r.cfg && r.state == stNeighbor {
		d.demote(r, stDead, fx)
		r.retryAt = now + d.cfg.Interval
		d.stats.MemberDeadRemoved.Add(1)
		d.notify(fx, peer, MemberDead)
	}
}

// leave notifies every neighbor of a graceful shutdown.
func (d *discovery) leave(fx *effects) {
	var sends []discoSend
	for _, r := range d.byID() {
		if r.state == stNeighbor && !r.cfg && r.addr.IsValid() {
			sends = append(sends, discoSend{dst: r.id, addr: r.addr, kind: kindLeave})
		}
	}
	for _, id := range d.tab.ids {
		if e := d.configured(id); e != nil {
			sends = append(sends, discoSend{dst: id, addr: e.addr, kind: kindLeave})
		}
	}
	d.flush(sends, fx)
}

// swapPool exchanges two pool slots.
func (d *discovery) swapPool(i, j int) {
	d.pool[i], d.pool[j] = d.pool[j], d.pool[i]
	d.pool[i].slot, d.pool[j].slot = i, j
}

// gossipFanout is how many known peers each announce samples.
const gossipFanout = 8

// gossipSample draws up to gossipFanout known peer addresses uniformly,
// excluding the announce's destination: a Fisher–Yates shuffle of the
// pool that stops as soon as it has dealt enough, so an announce costs
// the fan-out, not the table.
func (d *discovery) gossipSample(exclude uint32) []gossipEntry {
	out := make([]gossipEntry, 0, gossipFanout)
	for i := 0; i < len(d.pool) && len(out) < gossipFanout; i++ {
		d.swapPool(i, i+d.rng.Intn(len(d.pool)-i))
		r := d.pool[i]
		if r.id != exclude && r.addr.IsValid() && r.state != stQuarantined {
			out = append(out, gossipEntry{id: r.id, addr: r.addr})
		}
	}
	return out
}

// isLonely reports whether this node currently has no mutual neighbor
// link at all — the condition the announce loneliness flag advertises.
func (d *discovery) isLonely() bool {
	if d.fixed > 0 {
		return false
	}
	for _, r := range d.nbrs {
		if r.peered {
			return false
		}
	}
	return true
}

// flush renders a step's membership frames into fx. A lonely node flags
// every announce it sends: each recipient is a possible rescuer, and the
// rescuers' rate limit and slot protection keep the answers from
// churning.
func (d *discovery) flush(sends []discoSend, fx *effects) {
	lonely := d.isLonely()
	for _, s := range sends {
		var payload []byte
		switch s.kind {
		case kindAnnounce:
			a := announce{
				digest:   d.cfg.VocabDigest,
				httpPort: d.cfg.HTTPPort,
				addr:     d.advertise,
				gossip:   d.gossipSample(s.dst),
			}
			if s.peered {
				a.flags |= annFlagPeered
			}
			if lonely {
				a.flags |= annFlagLonely
			}
			payload = encodeAnnounce(a)
			d.stats.AnnouncesSent.Add(1)
		case kindProbe:
			d.stats.ProbesSent.Add(1)
		case kindLeave:
			d.stats.LeavesSent.Add(1)
		}
		// To an explicit address: the peer need not be in the table, which
		// is the point of discovery.
		fx.push(outFrame{peer: s.dst, addr: s.addr, kind: s.kind, payload: payload})
	}
}

// members merges discovery metadata into the peer-table member rows
// (sorted by ID) and appends rows for records not in the table.
func (d *discovery) members(rows []Member) []Member {
	table := len(rows)
	for _, r := range d.byID() {
		i, ok := slices.BinarySearchFunc(rows[:table], r.id, func(m Member, id uint32) int { return cmp.Compare(m.ID, id) })
		if !ok {
			i = len(rows)
			rows = append(rows, Member{
				ID:             r.id,
				Origin:         "discovered",
				Membership:     r.state.String(),
				MembershipCode: uint8(r.state),
			})
		}
		m := &rows[i]
		if r.addr.IsValid() {
			m.Addr = r.addr.String()
			if r.httpPort != 0 {
				m.HTTPAddr = netip.AddrPortFrom(r.addr.Addr(), r.httpPort).String()
			}
		}
		m.Peered = r.peered || r.cfg
		m.Score = r.score
		m.Boot, m.HasBoot = r.boot, r.haveBoot
	}
	return rows
}
