package transport

import (
	"bytes"
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"diffusion/internal/message"
)

// Discovery tests drive the membership engine two ways, both in virtual
// time (simnet_test.go): scripted peers craft exact frames (boot nonces,
// digests, peering bits) to pin down the protocol state machine, and
// all-real-endpoint meshes prove gossip, probing and the two-way
// handshake compose end to end.

var testVocab = VocabDigest([]string{"class", "temperature", "seq"})

// discoInterval is the announce period the scripted tests use. An
// endpoint's rounds run at 0, discoInterval, 2×discoInterval, ...
const discoInterval = 40 * time.Millisecond

// disco attaches a discovery-enabled endpoint and runs its first round.
func (n *simNet) disco(id uint32, disco DiscoveryConfig, mod func(*UDPConfig)) (*UDP, *memberLog) {
	log := &memberLog{}
	if disco.Interval == 0 {
		disco.Interval = discoInterval
	}
	if disco.VocabDigest == 0 {
		disco.VocabDigest = testVocab
	}
	if disco.OnMember == nil {
		disco.OnMember = log.on
	}
	cfg := UDPConfig{
		ID:        id,
		Seed:      int64(id),
		Liveness:  &LivenessConfig{Interval: 25 * time.Millisecond},
		Discovery: &disco,
	}
	if mod != nil {
		mod(&cfg)
	}
	u := n.endpoint(cfg)
	n.run(0)
	return u, log
}

// rankedPeers returns two scripted peers, the one with the worse
// cluster-head score first.
func (n *simNet) rankedPeers() (weak, strong *simPeer) {
	weak, strong = n.peer(2, 7), n.peer(3, 7)
	if better(
		&discoRec{id: weak.id, score: clusterScore(weak.id, weak.boot)},
		&discoRec{id: strong.id, score: clusterScore(strong.id, strong.boot)},
	) {
		weak, strong = strong, weak
	}
	return weak, strong
}

func TestVocabDigest(t *testing.T) {
	a := VocabDigest([]string{"class", "type"})
	if a != VocabDigest([]string{"class", "type"}) {
		t.Error("digest not deterministic")
	}
	if a == VocabDigest([]string{"type", "class"}) {
		t.Error("digest must be order-sensitive: keys are numbered by registration order")
	}
	if VocabDigest([]string{"ab"}) == VocabDigest([]string{"a", "b"}) {
		t.Error("digest must separate key boundaries")
	}
}

func TestClusterScore(t *testing.T) {
	if clusterScore(7, 42) != clusterScore(7, 42) {
		t.Error("score not deterministic")
	}
	if clusterScore(7, 42) == clusterScore(7, 43) {
		t.Error("score must rotate with the boot nonce")
	}
	if clusterScore(7, 42) == clusterScore(8, 42) {
		t.Error("score must vary with the node ID")
	}
}

func TestAnnounceCodecRoundTrip(t *testing.T) {
	in := announce{
		flags:    annFlagPeered,
		digest:   0xDEADBEEFCAFE1234,
		httpPort: 8443,
		addr:     "127.0.0.1:7001",
		gossip: []gossipEntry{
			{id: 9, addr: netip.MustParseAddrPort("127.0.0.1:7009")},
			{id: 11, addr: netip.MustParseAddrPort("[2001:db8::2]:7011")},
		},
	}
	out, err := decodeAnnounce(encodeAnnounce(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.flags != in.flags || out.digest != in.digest || out.httpPort != in.httpPort ||
		out.addr != in.addr || len(out.gossip) != 2 ||
		out.gossip[0] != in.gossip[0] || out.gossip[1] != in.gossip[1] {
		t.Errorf("round trip mismatch: %+v != %+v", out, in)
	}

	if _, err := decodeAnnounce(nil); err == nil {
		t.Error("empty payload must not decode")
	}
	enc := encodeAnnounce(in)
	enc[0] = 99
	if _, err := decodeAnnounce(enc); err == nil {
		t.Error("unknown codec version must not decode")
	}
	enc[0] = discoVersion
	if _, err := decodeAnnounce(enc[:len(enc)-3]); err == nil {
		t.Error("truncated gossip must not decode")
	}
}

func TestDiscoveryPromotesAnnouncingPeer(t *testing.T) {
	n := newSimNet(t)
	u, log := n.disco(1, DiscoveryConfig{}, nil)
	x := n.peer(2, 7)

	x.announce(u, 0, testVocab)
	m := memberOf(u, 2)
	if m.Membership != "neighbor" || !log.has("2:joined") {
		t.Fatalf("after one announce: %s, events %v; want promoted", m.Membership, log.evs)
	}
	if m.Origin != "discovered" {
		t.Errorf("origin = %q, want discovered", m.Origin)
	}
	if m.HTTPAddr != "10.0.0.2:8080" {
		t.Errorf("http addr = %q", m.HTTPAddr)
	}
	if m.Score != clusterScore(2, 7) {
		t.Errorf("score = %d, want clusterScore(2,7)", m.Score)
	}
	if !m.HasHealth {
		t.Error("promoted peer must be tracked by the failure detector")
	}

	// The promotion announce must carry the peering bit — that is the
	// handshake completing from our side — and arrives one wire delay on.
	n.run(n.delay)
	a, ok := x.takeAnnounce()
	if !ok {
		t.Fatal("no announce reply")
	}
	if a.flags&annFlagPeered == 0 {
		t.Error("promotion announce must set the peering bit")
	}

	// Completing the handshake from the peer's side marks it peered.
	x.announce(u, annFlagPeered, testVocab)
	if !memberOf(u, 2).Peered {
		t.Error("peered announce did not complete the handshake")
	}
}

func TestDiscoveryQuarantineOnVocabMismatch(t *testing.T) {
	n := newSimNet(t)
	u, log := n.disco(1, DiscoveryConfig{}, nil)
	x := n.peer(2, 7)

	x.announce(u, 0, testVocab+1)
	if m := memberOf(u, 2); m.Membership != "quarantined" || !log.has("2:quarantined") {
		t.Fatalf("mismatched peer: %s, events %v; want quarantined", m.Membership, log.evs)
	}
	if got := u.Stats().MemberQuarantined.Load(); got != 1 {
		t.Errorf("quarantine counter = %d, want 1", got)
	}
	// The reply lets the mismatched peer quarantine us symmetrically.
	n.run(n.delay)
	if _, ok := x.takeAnnounce(); !ok {
		t.Fatal("quarantined peer must still get an announce reply")
	}
	if health := u.PeerHealth(); len(health) != 0 {
		t.Errorf("quarantined peer must not reach the detector: %v", health)
	}

	// A restart with the fixed vocabulary clears the quarantine.
	x.boot = 8
	x.announce(u, 0, testVocab)
	if m := memberOf(u, 2); m.Membership != "neighbor" {
		t.Fatalf("rehabilitated peer: %s, want neighbor", m.Membership)
	}
}

func TestDiscoveryDegreeCapEviction(t *testing.T) {
	n := newSimNet(t)
	u, log := n.disco(1, DiscoveryConfig{DegreeCap: 1}, nil)
	weak, strong := n.rankedPeers()

	weak.announce(u, 0, testVocab)
	if m := memberOf(u, weak.id); m.Membership != "neighbor" {
		t.Fatalf("weak peer into the free slot: %s", m.Membership)
	}

	// A better-scored peer displaces it; the cap holds at 1.
	strong.announce(u, 0, testVocab)
	if s, w := memberOf(u, strong.id), memberOf(u, weak.id); s.Membership != "neighbor" || w.Membership != "candidate" {
		t.Fatalf("strong=%s weak=%s, want strong to evict weak", s.Membership, w.Membership)
	}
	if !log.has(fmt.Sprintf("%d:evicted", weak.id)) {
		t.Errorf("missing evicted event, got %v", log.evs)
	}
	if got := u.Neighbors(); !slices.Equal(got, []uint32{strong.id}) {
		t.Errorf("degree cap violated: table %v", got)
	}
	// The evictee is told immediately: after its promotion announce
	// (peering bit set) comes one with the bit clear.
	n.run(n.delay)
	first, _ := weak.takeAnnounce()
	second, ok := weak.takeAnnounce()
	if !ok || first.flags&annFlagPeered == 0 || second.flags&annFlagPeered != 0 {
		t.Errorf("evictee saw flags %#x then %#x (ok=%v), want peered then clear", first.flags, second.flags, ok)
	}

	// The weak peer announcing again does not displace the strong one, for
	// as long as the strong one holds the slot: exactly three announce
	// intervals, since it never set the peering bit itself.
	weak.announce(u, annFlagPeered, testVocab)
	n.run(3*discoInterval - n.delay)
	weak.announce(u, annFlagPeered, testVocab)
	if s, w := memberOf(u, strong.id), memberOf(u, weak.id); s.Membership != "neighbor" || w.Membership != "candidate" {
		t.Fatalf("three intervals on: strong=%s weak=%s; weaker peer displaced a stronger neighbor", s.Membership, w.Membership)
	}
	// One round later the one-way slot is reclaimed.
	n.run(discoInterval)
	if s := memberOf(u, strong.id); s.Membership != "candidate" || !log.has(fmt.Sprintf("%d:demoted", strong.id)) {
		t.Fatalf("four intervals on: strong=%s, events %v; want the handshake deadline to demote it", s.Membership, log.evs)
	}
}

// TestDiscoveryLonelyRescue: pure score preference starves the globally
// weakest node once the mesh saturates (at n = cap+2 the top cap+1 nodes
// form a full clique and the bottom one is isolated forever). An
// announce carrying the loneliness flag must be admitted even though its
// score beats nobody, and the rescued slot must be protected so a
// stronger peer cannot score its way back in and re-isolate it.
func TestDiscoveryLonelyRescue(t *testing.T) {
	n := newSimNet(t)
	u, log := n.disco(1, DiscoveryConfig{DegreeCap: 1}, nil)
	weak, strong := n.rankedPeers()

	strong.announce(u, annFlagPeered, testVocab)
	if m := memberOf(u, strong.id); m.Membership != "neighbor" {
		t.Fatalf("strong peer into the free slot: %s", m.Membership)
	}

	// Without the flag the weaker peer loses on score and stays out,
	// however often it asks.
	for i := 0; i < 3; i++ {
		weak.announce(u, annFlagPeered, testVocab)
		if m := memberOf(u, weak.id); m.Membership == "neighbor" {
			t.Fatal("weaker peer displaced a stronger neighbor without the loneliness flag")
		}
		n.run(discoInterval)
	}

	// The loneliness flag overrides the score order: weak is admitted and
	// the stronger occupant is evicted.
	weak.announce(u, annFlagPeered|annFlagLonely, testVocab)
	if w, s := memberOf(u, weak.id), memberOf(u, strong.id); w.Membership != "neighbor" || s.Membership == "neighbor" {
		t.Fatalf("weak=%s strong=%s, want the lonely peer admitted over the score order", w.Membership, s.Membership)
	}
	if !log.has(fmt.Sprintf("%d:joined", weak.id)) || !log.has(fmt.Sprintf("%d:evicted", strong.id)) {
		t.Errorf("missing join/evict events, got %v", log.evs)
	}

	// The rescued slot is protected: the stronger peer's re-announces must
	// not evict the lonely-admitted neighbor, now or once its eviction
	// damping (5 intervals) has run out.
	for i := 0; i < 6; i++ {
		strong.announce(u, annFlagPeered, testVocab)
		weak.announce(u, annFlagPeered, testVocab) // keeps its record, and the detector, fresh
		if m := memberOf(u, weak.id); m.Membership != "neighbor" {
			t.Fatalf("round %d: score eviction re-isolated the lonely-admitted neighbor", i)
		}
		if m := memberOf(u, strong.id); m.Membership == "neighbor" {
			t.Fatalf("round %d: degree cap violated: both peers promoted", i)
		}
		n.run(discoInterval)
	}
}

// TestDiscoveryLonelyFlagsEveryAnnounce: a node with no mutual link flags
// every announce it sends, so every recipient is a possible rescuer; once
// a link is mutual, none is flagged.
func TestDiscoveryLonelyFlagsEveryAnnounce(t *testing.T) {
	n := newSimNet(t)
	peers := []*simPeer{n.peer(2, 7), n.peer(3, 7), n.peer(4, 7)}
	var seeds []string
	for _, p := range peers {
		seeds = append(seeds, p.addr.String())
	}
	u, _ := n.disco(1, DiscoveryConfig{Seeds: seeds}, nil)

	// The first round's batch: one announce to each seed.
	n.run(n.delay)
	for _, p := range peers {
		a, ok := p.takeAnnounce()
		if !ok || a.flags&annFlagLonely == 0 {
			t.Errorf("lonely node's announce to %d: flags %#x (ok=%v), want the lonely flag", p.id, a.flags, ok)
		}
	}

	// A mutual link ends the loneliness: the next batch flags nothing.
	peers[0].announce(u, annFlagPeered, testVocab)
	n.run(discoInterval)
	for _, p := range peers {
		for a, ok := p.takeAnnounce(); ok; a, ok = p.takeAnnounce() {
			if a.flags&annFlagLonely != 0 {
				t.Errorf("announce to %d flagged lonely after a mutual link formed", p.id)
			}
		}
	}
}

// TestDiscoveryGossipProbedByRound: a peer first seen in gossip is not
// probed on the spot; the next round's due list probes it.
func TestDiscoveryGossipProbedByRound(t *testing.T) {
	n := newSimNet(t)
	u, _ := n.disco(1, DiscoveryConfig{}, nil)
	x, y := n.peer(2, 7), n.peer(9, 7)

	x.announce(u, 0, testVocab, gossipEntry{id: y.id, addr: y.addr})
	if m := memberOf(u, y.id); m.Membership != "candidate" {
		t.Fatalf("gossip-learned peer: %s, want candidate", m.Membership)
	}
	n.run(discoInterval - 1)
	if _, ok := y.take(kindProbe); ok {
		t.Fatal("first sighting probed before any round picked it")
	}
	// The round at one interval probes it; the probe lands a wire delay on.
	n.run(n.delay + 1)
	if _, ok := y.take(kindProbe); !ok {
		t.Fatal("the round after the first sighting did not probe it")
	}
}

func TestDiscoveryHandshakeTimeoutDemotes(t *testing.T) {
	n := newSimNet(t)
	u, log := n.disco(1, DiscoveryConfig{}, nil)
	x := n.peer(2, 7)

	// X announces but never sets the peering bit (it is full elsewhere):
	// the one-way slot is held for exactly three announce intervals and
	// reclaimed by the next round.
	x.announce(u, 0, testVocab)
	n.run(3 * discoInterval)
	if m := memberOf(u, 2); m.Membership != "neighbor" {
		t.Fatalf("three intervals after promotion: %s, want the slot still held", m.Membership)
	}
	n.run(discoInterval)
	if m := memberOf(u, 2); m.Membership != "candidate" || !log.has("2:demoted") {
		t.Fatalf("four intervals after promotion: %s, events %v; want demoted", m.Membership, log.evs)
	}
}

// TestHandshakeBackoffEscalation pins the damping schedule: 5 intervals
// after the first failed handshake, doubling per failure, then jumping
// to the quiescent ceiling after courtshipQuiesceAfter straight
// failures — a saturated peer is left alone until it courts us itself.
func TestHandshakeBackoffEscalation(t *testing.T) {
	d := &discovery{cfg: DiscoveryConfig{Interval: time.Millisecond}}
	r := &discoRec{}
	for i, want := range []time.Duration{5, 10, 20, 5 << 10, 5 << 10} {
		if got := d.handshakeBackoff(r); got != want*time.Millisecond {
			t.Errorf("failure %d: delay %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
}

// TestDiscoveryHandshakeBackoff drives the courtship damping end to end:
// a failed handshake notifies the peer with a bit-clear announce and
// opens a retry window during which unpeered announces cannot re-promote;
// a reciprocating announce bypasses the window and completes the link.
func TestDiscoveryHandshakeBackoff(t *testing.T) {
	n := newSimNet(t)
	u, _ := n.disco(1, DiscoveryConfig{}, nil)
	x := n.peer(2, 7)

	x.announce(u, 0, testVocab)
	n.run(4 * discoInterval) // promoted at 0, demoted by the round at 4 intervals
	if m := memberOf(u, 2); m.Membership != "candidate" {
		t.Fatalf("one-way peer: %s, want demoted", m.Membership)
	}

	// The demote is announced to the peer with the peering bit cleared so
	// it can free its own slot without waiting out its failure detector:
	// the last announce it got.
	n.run(n.delay)
	var last announce
	for a, ok := x.takeAnnounce(); ok; a, ok = x.takeAnnounce() {
		last = a
	}
	if last.flags&annFlagPeered != 0 {
		t.Fatal("no bit-clear announce after the handshake demote")
	}

	// Inside the retry window — 5 announce intervals from the demote — an
	// unpeered announce must not re-promote: that repeat courtship is
	// exactly what the backoff damps.
	n.run(5*discoInterval - n.delay - 1)
	x.announce(u, 0, testVocab)
	if m := memberOf(u, 2); m.Membership != "candidate" {
		t.Fatalf("unpeered announce re-promoted inside the retry window: %s", m.Membership)
	}

	// A reciprocating announce completes the handshake immediately: the
	// peer holds a slot for us, so the damping no longer applies.
	x.announce(u, annFlagPeered, testVocab)
	if m := memberOf(u, 2); m.Membership != "neighbor" || !m.Peered {
		t.Fatalf("reciprocating announce inside the retry window: %s peered=%v", m.Membership, m.Peered)
	}
}

func TestDiscoveryLeaveDemotes(t *testing.T) {
	n := newSimNet(t)
	u, log := n.disco(1, DiscoveryConfig{}, nil)
	x := n.peer(2, 7)

	x.announce(u, annFlagPeered, testVocab)
	if m := memberOf(u, 2); m.Membership != "neighbor" {
		t.Fatalf("peer 2: %s, want promoted", m.Membership)
	}

	x.send(u, kindLeave, nil)
	if m := memberOf(u, 2); m.Membership != "left" || !log.has("2:left") {
		t.Fatalf("after leave: %s, events %v", m.Membership, log.evs)
	}
	if health := u.PeerHealth(); len(health) != 0 {
		t.Errorf("departed peer still tracked by the detector: %v", health)
	}
}

// TestDiscoveryChurnToRemoval walks a discovered peer through the full
// liveness lifecycle: promoted → suspect → dead → removed from the table,
// then re-announced under a new boot nonce as a fresh incarnation.
func TestDiscoveryChurnToRemoval(t *testing.T) {
	var states []PeerState
	lv := &LivenessConfig{
		Interval:      20 * time.Millisecond,
		SuspectAfter:  60 * time.Millisecond,
		DeadAfter:     140 * time.Millisecond,
		OnStateChange: func(peer uint32, s PeerState) { states = append(states, s) },
	}
	n := newSimNet(t)
	u, log := n.disco(1, DiscoveryConfig{}, func(cfg *UDPConfig) { cfg.Liveness = lv })
	x := n.peer(2, 7)

	x.announce(u, annFlagPeered, testVocab)
	if m := memberOf(u, 2); m.Membership != "neighbor" {
		t.Fatalf("peer 2: %s, want promoted", m.Membership)
	}

	// Silence: the detector walks it through suspect to dead on the
	// thresholds, and discovery then removes it from the live table.
	n.run(lv.SuspectAfter)
	if m := memberOf(u, 2); m.Membership != "neighbor" || m.Health.State != PeerSuspect {
		t.Fatalf("at SuspectAfter: %s/%v, want a suspect neighbor", m.Membership, m.Health.State)
	}
	n.run(lv.DeadAfter - lv.SuspectAfter)
	if m := memberOf(u, 2); m.Membership != "dead" {
		t.Fatalf("at DeadAfter: %s, want removed as dead", m.Membership)
	}
	if want := []PeerState{PeerSuspect, PeerDead}; !slices.Equal(states, want) {
		t.Errorf("liveness transitions %v, want %v", states, want)
	}
	if !log.has("2:dead") {
		t.Errorf("missing dead event, got %v", log.evs)
	}
	if len(u.Neighbors()) != 0 {
		t.Errorf("dead peer still in the table: %v", u.Neighbors())
	}
	if health := u.PeerHealth(); len(health) != 0 {
		t.Errorf("dead peer still probed: %v", health)
	}

	// A new incarnation re-announces and walks back in as a fresh peer.
	x.boot = 8
	x.announce(u, annFlagPeered, testVocab)
	if m := memberOf(u, 2); m.Membership != "neighbor" || !m.HasHealth || m.Health.State != PeerAlive {
		t.Fatalf("new incarnation: %s health=%v/%v", m.Membership, m.HasHealth, m.Health.State)
	}
	if m := memberOf(u, 2); m.Score != clusterScore(2, 8) {
		t.Error("score must be recomputed for the new boot nonce")
	}
}

// TestDiscoveryRebootClearsRetransmitState pins the no-stale-state
// guarantee: a promoted peer re-announcing under a new boot nonce must
// not inherit pending reliable retransmissions or custody offers aimed at
// its previous incarnation.
func TestDiscoveryRebootClearsRetransmitState(t *testing.T) {
	n := newSimNet(t)
	u, log := n.disco(1, DiscoveryConfig{}, func(cfg *UDPConfig) {
		// Huge RTOs: nothing retires on its own during the test.
		cfg.Reliable = &ReliableConfig{RTO: time.Hour, MaxRTO: time.Hour}
		cfg.Custody = &CustodyOptions{
			RTO: time.Hour, MaxRTO: time.Hour,
			Accept:  func(uint32, message.ID, []byte) (bool, bool) { return true, true },
			Release: func(uint32, message.ID) {},
		}
	})
	x := n.peer(2, 1)

	x.announce(u, annFlagPeered, testVocab)
	if m := memberOf(u, 2); m.Membership != "neighbor" {
		t.Fatalf("peer 2: %s, want promoted", m.Membership)
	}

	// One unacked reliable frame and one unacked custody offer in flight
	// toward incarnation 1 (the scripted peer never acks anything).
	if err := u.Send(2, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := u.SendCustody(2, message.ID{RandID: 42}, []byte("custody")); err != nil {
		t.Fatal(err)
	}
	if u.rel.pending(2) != 1 || u.CustodyPending() != 1 {
		t.Fatalf("in flight: reliable %d custody %d, want 1 and 1", u.rel.pending(2), u.CustodyPending())
	}

	// New incarnation announces: both must be dropped, not retransmitted
	// into the reset sequence space.
	x.boot = 2
	x.announce(u, annFlagPeered, testVocab)
	if u.rel.pending(2) != 0 || u.CustodyPending() != 0 {
		t.Fatalf("after the boot change: reliable %d custody %d still pending", u.rel.pending(2), u.CustodyPending())
	}
	if !log.has("2:rejoined") {
		t.Errorf("missing rejoined event, got %v", log.evs)
	}
	if m := memberOf(u, 2); m.Membership != "neighbor" {
		t.Error("rejoined peer must stay a neighbor")
	}
}

// TestDiscoveryIgnoresHostnames: addresses inside an announce come from
// the network, possibly from a peer not even in the table, and must never
// reach a resolver. A hostname in the advertised address falls back to
// the wire source; a hostname in a gossip entry is skipped.
func TestDiscoveryIgnoresHostnames(t *testing.T) {
	n := newSimNet(t)
	u, _ := n.disco(1, DiscoveryConfig{}, nil)
	x := n.peer(2, 7)

	a := announce{digest: testVocab, addr: "example.invalid:7000",
		gossip: []gossipEntry{{id: 8, addr: simAddr(8)}, {id: 9, addr: simAddr(9)}}}
	// Entry 8's address, rewritten in place to a name of the same length.
	enc := encodeAnnounce(a)
	name := []byte("a.b.test:7000")
	if i := bytes.Index(enc, []byte(simAddr(8).String())); i < 0 || len(name) != len(simAddr(8).String()) {
		t.Fatal("test setup: gossip entry not found in the encoding")
	} else {
		copy(enc[i:], name)
	}
	x.send(u, kindAnnounce, enc)

	if m := memberOf(u, 2); m.Membership != "neighbor" || m.Addr != x.addr.String() {
		t.Fatalf("peer 2: %s at %q, want a neighbor at its wire source %s", m.Membership, m.Addr, x.addr)
	}
	if m := memberOf(u, 8); m.Membership != "absent" {
		t.Errorf("gossip entry with a hostname was recorded: %+v", m)
	}
	if m := memberOf(u, 9); m.Membership != "candidate" {
		t.Errorf("literal gossip entry: %s, want candidate", m.Membership)
	}
	if got := u.Stats().GossipLearned.Load(); got != 1 {
		t.Errorf("gossip learned = %d, want 1", got)
	}
}

// TestDiscoveryTableCapped: gossip entries and sender IDs are untrusted,
// so one spoofing sender must not grow the record table without limit.
// Announces carrying 255 fresh gossip IDs each, then a probe and an
// announce from fresh sender IDs, drive the table past maxRecs: it stops
// at the cap and every ID turned away is counted.
func TestDiscoveryTableCapped(t *testing.T) {
	n := newSimNet(t)
	u, _ := n.disco(1, DiscoveryConfig{}, nil)
	x := n.peer(2, 7)
	gossip := make([]gossipEntry, 255)
	announces := maxRecs/len(gossip) + 2
	next := uint32(1000)
	for range announces {
		for i := range gossip {
			gossip[i] = gossipEntry{id: next, addr: simAddr(next)}
			next++
		}
		x.announce(u, 0, testVocab, gossip...)
	}
	n.peer(next, 1).send(u, kindProbe, nil)
	n.peer(next+1, 1).announce(u, 0, testVocab)

	if got := len(u.disco.recs); got != maxRecs {
		t.Fatalf("table holds %d records, cap %d", got, maxRecs)
	}
	offered := 1 + announces*len(gossip) + 2 // peer 2, its gossip, the two fresh senders
	if got, want := u.Stats().GossipRefused.Load(), uint64(offered-maxRecs); got != want {
		t.Errorf("refused = %d, want %d", got, want)
	}
	if got := u.Stats().GossipLearned.Load(); got != maxRecs-1 {
		t.Errorf("gossip learned = %d, want %d", got, maxRecs-1)
	}
	if m := memberOf(u, next+1); m.Membership != "absent" {
		t.Errorf("a sender past the cap was recorded: %+v", m)
	}
}

// mutual reports whether x holds id as a neighbor that has peered back.
func mutual(x *UDP, id uint32) bool {
	m := memberOf(x, id)
	return m.Membership == "neighbor" && m.Peered
}

// TestDiscoveryGossipMesh proves the full bootstrap path with real
// endpoints: two nodes seeded only with a third find each other through
// its gossip, probe, handshake, and end up mutually promoted; a graceful
// Leave then demotes everywhere without waiting for timeouts.
func TestDiscoveryGossipMesh(t *testing.T) {
	n := newSimNet(t)
	seeds := []string{simAddr(1).String()}
	seed, _ := n.disco(1, DiscoveryConfig{}, nil)
	b, _ := n.disco(2, DiscoveryConfig{Seeds: seeds}, nil)
	c, _ := n.disco(3, DiscoveryConfig{Seeds: seeds}, nil)

	// Announce → reply → peered announce with each side of the seed, then
	// the seed's gossip → probe → announce → reply between b and c: well
	// inside two rounds.
	n.run(2 * discoInterval)
	for _, link := range []struct {
		at   *UDP
		peer uint32
	}{{seed, 2}, {seed, 3}, {b, 1}, {c, 1}, {b, 3}, {c, 2}} {
		if !mutual(link.at, link.peer) {
			t.Errorf("node %d does not hold %d as a mutual neighbor: %+v", link.at.ID(), link.peer, memberOf(link.at, link.peer))
		}
	}
	if got := b.Stats().GossipLearned.Load() + c.Stats().GossipLearned.Load(); got == 0 {
		t.Error("b and c must have learned each other from gossip")
	}

	c.Leave()
	n.run(n.delay)
	if mb, ms := memberOf(b, 3), memberOf(seed, 3); mb.Membership != "left" || ms.Membership != "left" {
		t.Fatalf("one wire delay after Leave: b sees %s, seed sees %s; want left", mb.Membership, ms.Membership)
	}
}

// mesh attaches n discovery endpoints, IDs 1..n, everyone but node 1
// knowing nothing but node 1's address.
func (sn *simNet) mesh(n, degreeCap int, interval time.Duration) []*UDP {
	return sn.seededMesh(n, degreeCap, interval, 0)
}

// seededMesh is mesh with its randomness drawn from seed: every
// endpoint's random stream and boot nonce — and so its cluster-head
// score — move with it. Seed 0 is mesh.
func (sn *simNet) seededMesh(n, degreeCap int, interval time.Duration, seed int64) []*UDP {
	sn.salt = uint32(seed) * 0x9e3779b9
	nodes := make([]*UDP, n)
	for i := range nodes {
		cfg := DiscoveryConfig{Interval: interval, DegreeCap: degreeCap, VocabDigest: testVocab}
		if i > 0 {
			cfg.Seeds = []string{simAddr(1).String()}
		}
		nodes[i] = sn.endpoint(UDPConfig{
			ID:        uint32(i + 1),
			Seed:      int64(i+1) + seed<<32,
			Liveness:  &LivenessConfig{Interval: 4 * interval},
			Discovery: &cfg,
		})
	}
	return nodes
}

// TestDiscoverySaturationQuiesce reproduces the DESIGN.md §10 saturation
// case: n = cap + 2 at degree cap 8, so the regular graph cannot fit
// everyone at full degree and at least one node converges sub-cap next
// to a saturated clique. Before the courtship quiesce ceiling that node
// re-courted its full peers forever — the damped candidate record
// expired after ten quiet intervals, gossip re-taught it with a fresh
// backoff counter, and discovery.demotions grew without bound. The fix
// must make the mesh go quiet: after convergence the fleet-wide demotion
// total has to stop growing and stay stopped.
func TestDiscoverySaturationQuiesce(t *testing.T) {
	const (
		n        = 10
		cap      = 8
		interval = 20 * time.Millisecond
	)
	sn := newSimNet(t)
	nodes := sn.mesh(n, cap, interval)
	demotions := func() (total uint64) {
		for _, u := range nodes {
			total += u.Stats().MemberDemotions.Load()
		}
		return total
	}

	// The escalating schedule plays out within a few hundred intervals
	// (5+10+20 of damping plus three handshake deadlines per courtship).
	sn.run(500 * interval)
	for _, u := range nodes {
		peered := 0
		for _, m := range u.Members() {
			if m.MembershipCode == MembershipNeighbor && m.Peered {
				peered++
			}
		}
		if peered == 0 {
			t.Errorf("node %d has no mutual neighbor after 500 intervals", u.ID())
		}
	}
	settled := demotions()
	// Quiescence: not one demotion anywhere in the next 1000 intervals —
	// the churn loop this guards against demoted roughly every dozen
	// intervals per courting pair.
	sn.run(1000 * interval)
	if got := demotions(); got != settled {
		t.Fatalf("demotions grew from %d to %d over 1000 quiet intervals", settled, got)
	}
	t.Logf("saturated n=%d cap=%d mesh quiesced at %d total demotions", n, cap, settled)
}

// edges is the mesh's mutual neighbor graph: {a,b} with a < b, where each
// holds the other in its table, sorted.
func edges(t *testing.T, nodes []*UDP, degreeCap int) [][2]uint32 {
	t.Helper()
	has := map[[2]uint32]bool{}
	for _, u := range nodes {
		nbrs := u.Neighbors()
		if len(nbrs) > degreeCap {
			t.Errorf("node %d has degree %d, cap %d", u.ID(), len(nbrs), degreeCap)
		}
		for _, p := range nbrs {
			has[[2]uint32{u.ID(), p}] = true
		}
	}
	var out [][2]uint32
	for e := range has {
		if e[0] < e[1] && has[[2]uint32{e[1], e[0]}] {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b [2]uint32) int {
		return slices.Compare(a[:], b[:])
	})
	return out
}

// ranLargeMesh records that this process has already converged the
// n=1000 mesh.
var ranLargeMesh bool

// TestDiscoveryConvergesVirtual bootstraps a whole mesh from one seed
// address in virtual time: every node ends with between 1 and cap mutual
// neighbors, the neighbor graph is connected, and the run is repeatable
// frame for frame. The n=1000 mesh — a million records, half a million
// frames — runs once per process: a virtual-time run is a pure function
// of its seeds, which the two runs here check, so -count has nothing to
// find in further repeats, and under the race detector each costs most of
// a minute.
func TestDiscoveryConvergesVirtual(t *testing.T) {
	sizes := []int{100}
	if !testing.Short() && !ranLargeMesh {
		ranLargeMesh = true
		sizes = append(sizes, 1000)
	}
	const (
		degreeCap = 8
		interval  = 100 * time.Millisecond
		rounds    = 6
	)
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			type result struct {
				frames int
				graph  [][2]uint32
			}
			run := func(out chan<- result) {
				sn := newSimNet(t)
				nodes := sn.mesh(n, degreeCap, interval)
				sn.run(rounds * interval)
				out <- result{sn.frames, edges(t, nodes, degreeCap)}
			}
			// Same seeds, same schedule, twice — side by side, since each
			// harness is its own single-threaded world.
			results := make(chan result, 2)
			go run(results)
			run(results)
			first, second := <-results, <-results
			if second.frames != first.frames || !slices.Equal(second.graph, first.graph) {
				t.Errorf("two runs differ: %d frames and %d edges, then %d frames and %d edges",
					first.frames, len(first.graph), second.frames, len(second.graph))
			}

			// Every node has a mutual neighbor, and one flood from node 1
			// over mutual links reaches all n.
			adj := map[uint32][]uint32{}
			for _, e := range first.graph {
				adj[e[0]] = append(adj[e[0]], e[1])
				adj[e[1]] = append(adj[e[1]], e[0])
			}
			for id := uint32(1); id <= uint32(n); id++ {
				if len(adj[id]) == 0 {
					t.Errorf("node %d has no mutual neighbor", id)
				}
			}
			reached := map[uint32]bool{1: true}
			for queue := []uint32{1}; len(queue) > 0; queue = queue[1:] {
				for _, p := range adj[queue[0]] {
					if !reached[p] {
						reached[p] = true
						queue = append(queue, p)
					}
				}
			}
			if len(reached) != n {
				t.Errorf("neighbor graph is not connected: %d of %d nodes reachable from node 1", len(reached), n)
			}
			t.Logf("n=%d: %d edges, %d frames in %d rounds", n, len(first.graph), first.frames, rounds)
		})
	}
}
