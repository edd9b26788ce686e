package rt

import (
	"fmt"
	"io"

	"diffusion/internal/core"
	"diffusion/internal/custody"
	"diffusion/internal/message"
	"diffusion/internal/telemetry"
	"diffusion/internal/transport"
)

// StackConfig configures one live node. NewStack fills in everything that
// ties the parts together — Link.Deliver, Link.Custody, Link.Spans, the
// Liveness and Discovery callbacks, and Node.Clock, Node.Link,
// Node.Custody, Node.Flight and Node.Spans — so the caller sets only what
// it chooses.
type StackConfig struct {
	Link transport.UDPConfig
	Node core.Config
	// Custody enables custody transfer: a queue of at most CustodyLimit
	// items that vouches for reinforced data across partitions, journaled
	// (fsync'd) to CustodyFile when that is set.
	Custody      bool
	CustodyLimit int
	CustodyFile  string
	// Log receives the stack's lines — liveness and membership verdicts,
	// flight dumps, custody recovery — each starting with Prefix.
	Log    io.Writer
	Prefix string
}

// Stack is one live diffusion node: a core.Node on its own Loop over a
// UDP endpoint, with its telemetry and, optionally, custody.
type Stack struct {
	Loop *Loop
	Node *core.Node
	Link *transport.UDP
	Reg  *telemetry.Registry
	Hub  *telemetry.Hub
	// Flight is the always-on ring of recent protocol activity, dumped to
	// the log when a neighbor dies. Spans is the flight-path span ring (nil
	// unless Node.TraceSample > 0), shared by the core and the transport.
	// Both stamp with the loop's clock.
	Flight, Spans *telemetry.Ring
	// Custody is the custody queue (nil unless StackConfig.Custody) and
	// Store its journal (nil unless CustodyFile is set).
	Custody *custody.Queue
	Store   *custody.Store

	log    io.Writer
	prefix string
}

// NewStack assembles a node in the one order that loses nothing. The
// custody journal is restored before the endpoint exists, because the
// endpoint's Accept journals straight into the queue and no offer may be
// acknowledged before the journal is there. The endpoint is opened and the
// node built inside one loop callback, so every datagram, liveness verdict
// and membership event the endpoint posts queues behind the node's
// construction: the link never delivers before the node exists. The caller
// owns Close.
func NewStack(c StackConfig) (*Stack, error) {
	s := &Stack{log: c.Log, prefix: c.Prefix}
	if c.Custody {
		var restored []custody.Item
		// journal stays a nil interface for memory-only custody: a typed
		// nil *Store in it would pass the queue's != nil guard and crash.
		var journal custody.Journal
		if c.CustodyFile != "" {
			store, items, err := custody.OpenStore(c.CustodyFile)
			if err != nil {
				return nil, fmt.Errorf("custody journal: %w", err)
			}
			s.Store, restored, journal = store, items, store
		}
		s.Custody = custody.NewQueue(c.CustodyLimit, journal)
		s.Custody.Restore(restored)
		if len(restored) > 0 {
			fmt.Fprintf(s.log, "%scustody recovered %d items from %s (%d bytes torn tail discarded)\n",
				s.prefix, len(restored), c.CustodyFile, s.Store.Stats().TailTruncated)
		}
		c.Link.Custody = &transport.CustodyOptions{
			// Accept runs on the endpoint's reader goroutine; the queue is
			// internally locked and journals (fsync) before reporting held,
			// so the ack the transport sends is backed by disk. AcceptOffer
			// (not Accept) because the offerer releases on our ack: an ID
			// this node held and released earlier must be re-held, or a
			// custody walk revisiting us under changed topology would
			// discharge data nobody holds.
			Accept: func(from uint32, id message.ID, payload []byte) (held, fresh bool) {
				return s.Custody.AcceptOffer(id, payload)
			},
			Release: func(peer uint32, id message.ID) { s.Custody.Release(id) },
		}
	}
	// Copies, so that a caller may share one Liveness or Discovery.
	if c.Link.Liveness != nil {
		live := *c.Link.Liveness
		live.OnStateChange = s.onPeerState
		c.Link.Liveness = &live
	}
	if c.Link.Discovery != nil {
		disco := *c.Link.Discovery
		disco.OnMember = s.onMember
		c.Link.Discovery = &disco
	}

	s.Loop = NewLoop()
	s.Flight = telemetry.NewRing(telemetry.DefaultFlightSize, s.Loop.Now)
	if c.Node.TraceSample > 0 {
		s.Spans = telemetry.NewRing(telemetry.DefaultSpanSize, s.Loop.Now)
	}
	s.Hub = telemetry.NewHub(s.Loop.Now)
	s.Reg = s.Hub.Register(telemetry.NewRegistry(fmt.Sprintf("node%d", c.Link.ID)))
	c.Link.Spans = s.Spans
	receive := func(from uint32, payload []byte) { s.Node.Receive(from, payload) }
	c.Link.Deliver = func(from uint32, payload []byte) { s.Loop.PostFrame(receive, from, payload) }
	c.Node.Clock, c.Node.Custody, c.Node.Flight, c.Node.Spans = s.Loop, s.Custody, s.Flight, s.Spans
	var err error
	s.Loop.Call(func() {
		if s.Link, err = transport.ListenUDP(c.Link); err != nil {
			return
		}
		c.Node.Link = s.Link
		s.Node = core.NewNode(c.Node)
		s.Node.Instrument(s.Reg)
		s.Link.Stats().Instrument(s.Reg)
		// Per-neighbor series, labeled with the peer ID via the registry's
		// "name|peer=N" convention (rendered as a peer label by
		// telemetry.WritePrometheus). Emitted at snapshot time only.
		s.Reg.AddCollector(func(emit func(string, float64)) {
			for id, h := range s.Link.PeerHealth() {
				emit(fmt.Sprintf("transport.peer_rtt_us|peer=%d", id), float64(h.RTTMicros))
				emit(fmt.Sprintf("transport.peer_state|peer=%d", id), float64(h.State))
				emit(fmt.Sprintf("transport.peer_last_heard_ms|peer=%d", id), float64(h.LastHeard.Milliseconds()))
			}
			for id, n := range s.Link.PeerRetransmits() {
				emit(fmt.Sprintf("transport.peer_retransmits|peer=%d", id), float64(n))
			}
			if s.Link.DiscoveryEnabled() {
				for _, m := range s.Link.Members() {
					emit(fmt.Sprintf("discovery.member_state|peer=%d", m.ID), float64(m.MembershipCode))
				}
			}
		})
		if s.Store != nil {
			s.Reg.AddCollector(func(emit func(string, float64)) {
				st := s.Store.Stats()
				emit("custody.store_appends", float64(st.Appends))
				emit("custody.store_bytes_fsynced", float64(st.BytesFsynced))
				emit("custody.store_syncs", float64(st.Syncs))
				emit("custody.store_compactions", float64(st.Compactions))
				emit("custody.store_recovered", float64(st.Recovered))
			})
		}
	})
	if err != nil {
		s.Loop.Stop()
		if s.Store != nil {
			s.Store.Close()
		}
		return nil, err
	}
	return s, nil
}

// WriteSpans writes the span ring as a JSONL trace, the body of a live
// node's GET /spans: the header's run info carries the node's identity,
// boot nonce, protocol rates as the node resolved them and the ring clock's
// absolute base, and each record's us is relative to that base.
func (s *Stack) WriteSpans(w io.Writer, seed int64) error {
	events := s.Spans.Records()
	recs := make([]telemetry.Record, len(events))
	for i, e := range events {
		recs[i] = e.Record()
	}
	return telemetry.WriteJSONL(w, s.Node.RunInfo(telemetry.RunInfo{
		Seed: seed, Topology: "diffnode", Nodes: 1,
		Node: s.Link.ID(), Boot: s.Link.Boot(), StartUnixUS: s.Loop.Start().UnixMicro(),
	}), recs)
}

// Close tells the mesh this node is leaving, so discovered neighbors
// demote it at once instead of waiting out the failure detector, then
// closes the endpoint, the node (behind every reception already queued),
// the loop and the journal. The queue itself needs no teardown:
// undelivered custodial data is exactly what the journal is for. Close
// returns the endpoint's error.
func (s *Stack) Close() error {
	s.Link.Leave()
	err := s.Link.Close()
	s.Loop.Call(s.Node.Close)
	s.Loop.Stop()
	if s.Store != nil {
		s.Store.Close()
	}
	return err
}

// DumpFlight writes the flight ring to the log, headed by why; loop-confined.
func (s *Stack) DumpFlight(why string) {
	fmt.Fprintf(s.log, "%sflight dump (%s):\n", s.prefix, why)
	s.Flight.Dump(s.log, faultKindName)
}

// Fault kinds the stack records into the flight ring on liveness and
// membership transitions.
const (
	faultPeerSuspect = iota + 1
	faultPeerDead
	faultPeerRecovered
	faultMemberJoined
	faultMemberGone
)

// faultKindName renders the stack's fault kinds for flight dumps.
func faultKindName(k uint8) string {
	names := [...]string{faultPeerSuspect: "peer-suspect", faultPeerDead: "peer-dead",
		faultPeerRecovered: "peer-recovered", faultMemberJoined: "member-joined", faultMemberGone: "member-gone"}
	if k > 0 && int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind=%d", k)
}

// onMember receives membership verdicts from the discovery engine. It
// runs on a transport goroutine, so protocol work is posted onto the
// loop. A joined (or rejoined) peer is primed exactly like a healed
// configured neighbor — NeighborRecovered re-floods interests and
// exploratory data so gradients form across the new edge; a rejoin
// purges state toward the old incarnation first. A departed peer
// (graceful leave, cap eviction, failed handshake) is a NeighborDead:
// gradients through it must not linger. A detector-declared death
// already drove NeighborDead through onPeerState, so MemberDead only
// records the table removal.
func (s *Stack) onMember(peer uint32, ev transport.MemberEvent) {
	fmt.Fprintf(s.log, "%smember %d %s\n", s.prefix, peer, ev)
	s.Loop.Post(func() {
		kind := uint8(faultMemberGone)
		if ev == transport.MemberJoined || ev == transport.MemberRejoined {
			kind = faultMemberJoined
		}
		s.Flight.Record(telemetry.Event{Node: s.Link.ID(), Peer: peer, Verb: telemetry.Fault, Kind: kind})
		switch ev {
		case transport.MemberJoined:
			s.Node.NeighborRecovered(peer)
		case transport.MemberRejoined:
			s.Node.NeighborDead(peer)
			s.Node.NeighborRecovered(peer)
		case transport.MemberLeft, transport.MemberEvicted, transport.MemberDemoted:
			s.Node.NeighborDead(peer)
		}
	})
}

// onPeerState receives the failure detector's verdicts. It runs on a
// transport goroutine, so everything protocol-touching is posted onto the
// loop: a dead neighbor purges the core's state toward it (NeighborDead
// re-primes interest and exploratory flooding around the hole), and the
// flight recorder is dumped to the log so the traffic leading up to the
// death is preserved for diagnosis.
func (s *Stack) onPeerState(peer uint32, st transport.PeerState) {
	fmt.Fprintf(s.log, "%sneighbor %d is %s\n", s.prefix, peer, st)
	s.Loop.Post(func() {
		kind := [...]uint8{transport.PeerAlive: faultPeerRecovered, transport.PeerSuspect: faultPeerSuspect,
			transport.PeerDead: faultPeerDead}[st]
		s.Flight.Record(telemetry.Event{Node: s.Link.ID(), Peer: peer, Verb: telemetry.Fault, Kind: kind})
		switch st {
		case transport.PeerDead:
			s.Node.NeighborDead(peer)
			s.DumpFlight(fmt.Sprintf("neighbor %d died", peer))
		case transport.PeerAlive:
			// A recovery: re-prime discovery toward the healed peer and
			// replay any custodial data that was waiting out the partition.
			// (The transport has already re-offered its pending custody
			// frames on this transition.)
			s.Node.NeighborRecovered(peer)
		}
	})
}
