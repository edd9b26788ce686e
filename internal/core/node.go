// Package core implements directed diffusion: the gradient-based,
// attribute-named communication core of the paper, together with the
// publish/subscribe Network Routing API (paper Figure 4) and the filter API
// (paper Figure 5).
//
// A Node is event-driven and single-threaded, exactly like the paper's
// reference daemon: it reacts to link-layer receptions and clock callbacks
// and never blocks. All state transitions happen on the owning executor —
// the simulator's event loop (internal/sim) or a wall-clock rt.Loop
// (internal/rt), which serializes receptions, timers and control-plane
// calls onto one goroutine so the same node code runs live unmodified.
//
// The protocol follows section 3.1:
//
//   - Sinks subscribe; subscriptions periodically originate interests that
//     flood hop-by-hop, and every receiving node stores the interest and
//     sets up a gradient toward the neighbor it came from.
//   - Sources publish; data is sent only when matching gradients exist.
//     Periodically (and initially) data is marked exploratory and flooded
//     along all gradients; other data follows reinforced gradients only.
//   - A sink reinforces the neighbor that delivered the first copy of new
//     exploratory data; reinforcement propagates hop-by-hop toward the
//     source, creating the high-rate delivery path.
//   - Duplicate non-exploratory data triggers negative reinforcement,
//     which tears down redundant reinforced paths.
//   - Filters (see filter.go) interpose on every message before the core
//     processes it, enabling in-network processing.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/custody"
	"diffusion/internal/match"
	"diffusion/internal/message"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
)

// Link is the hop-by-hop communication service beneath diffusion: broadcast
// or unicast to immediate neighbors, best effort. internal/mac implements
// it over the simulated radio; internal/transport implements it over UDP
// datagrams and in-process channels for live deployments.
type Link interface {
	// ID returns this node's link-layer identifier.
	ID() uint32
	// Send transmits payload to dst (a neighbor ID or message.Broadcast).
	// payload is borrowed for the call: the node reuses the buffer for its
	// next transmission, so a link that queues, delays or retransmits
	// copies what it keeps before Send returns.
	Send(dst uint32, payload []byte) error
}

// batchClock is the optional clock surface with an end-of-wake-up edge:
// Defer runs fn once the callbacks of the current wake-up have all run
// (rt.Loop; the simulator's clock has none).
type batchClock interface {
	Defer(fn func())
}

// corkLink is the optional link surface that can hold its writes: between
// Cork and Uncork the link coalesces what Send hands it, per neighbor, still
// only borrowing each payload (transport.UDP). A node on a batchClock corks
// such a link on a wake-up's first reception or transmission and uncorks it
// at the wake-up's end: a burst costs one datagram per neighbor, not one per
// message, and the link's acks for what the wake-up received ride along.
type corkLink interface {
	Cork()
	Uncork()
}

// Broadcast aliases the link broadcast address at the diffusion layer.
const Broadcast = uint32(message.Broadcast)

// self returns this node's identifier as a message.NodeID.
func selfID(n *Node) message.NodeID { return message.NodeID(n.ID()) }

// Config parameterizes a Node. Zero fields take the paper's testbed
// defaults.
type Config struct {
	// Clock schedules timers; Rand supplies jitter. Both are required.
	Clock sim.Clock
	Rand  *rand.Rand
	// Link is the hop-by-hop transport. Required.
	Link Link
	// InterestInterval is the period between interest refreshes
	// (testbed: 60 s).
	InterestInterval time.Duration
	// GradientLifetime is how long a gradient survives without refresh.
	GradientLifetime time.Duration
	// ExploratoryInterval is the period between exploratory data
	// messages per publication (testbed and simulation: one every
	// 50-60 s; with the testbed's 6 s events this yields the paper's
	// 1-in-10 ratio). It applies when ExploratoryEvery is zero.
	ExploratoryInterval time.Duration
	// ExploratoryEvery, when positive, switches to a count-based cadence:
	// every Nth data message per publication is exploratory (ablations).
	ExploratoryEvery int
	// ReinforcementTimeout is how long a gradient stays reinforced
	// without a fresh positive reinforcement; defaults to 2.5 exploratory
	// intervals so one lost reinforcement does not break a path.
	ReinforcementTimeout time.Duration
	// TTL bounds interest and exploratory flooding in hops.
	TTL uint8
	// ForwardJitter is the maximum random delay before re-flooding an
	// interest or exploratory message, de-synchronizing neighbors.
	ForwardJitter time.Duration
	// SeenTTL is how long message IDs stay in the duplicate-suppression
	// cache.
	SeenTTL time.Duration
	// DisableNegRF turns off duplicate-triggered negative reinforcement,
	// which is on by default (ablation).
	DisableNegRF bool
	// Flight, when set, records every origination, reception and
	// transmission into the node's flight-recorder ring (always-on crash
	// diagnostics), built with the node's clock. Nil disables recording.
	Flight *telemetry.Ring
	// Custody, when set, enables disruption-tolerant custody transfer
	// (custody.go): data with no forward path is queued here instead of
	// dropped and replayed when gradients reform. The same queue is fed by
	// the live transport's custody accepts; back it with a custody.Store
	// for crash durability.
	Custody *custody.Queue
	// TraceSample, in (0,1], enables flight-path tracing: each locally
	// originated message (published data, interest floods) is tagged with
	// a random 16-bit flow ID with this probability, and every layer that
	// handles a sampled message records a span into Spans. Zero disables
	// tracing entirely — the sampling draw then consumes no randomness, so
	// untraced runs are bit-identical to pre-trace builds.
	TraceSample float64
	// Spans receives flight-path events for sampled messages; like Flight,
	// built with the node's clock. Required when TraceSample > 0.
	Spans *telemetry.Ring
}

func (c *Config) fill() {
	if c.Clock == nil || c.Rand == nil || c.Link == nil {
		panic("core: Config requires Clock, Rand and Link")
	}
	if c.InterestInterval <= 0 {
		c.InterestInterval = 60 * time.Second
	}
	if c.GradientLifetime <= 0 {
		c.GradientLifetime = c.InterestInterval*2 + c.InterestInterval/2
	}
	if c.ExploratoryEvery <= 0 && c.ExploratoryInterval <= 0 {
		c.ExploratoryInterval = 60 * time.Second
	}
	if c.ReinforcementTimeout <= 0 {
		base := c.ExploratoryInterval
		if base <= 0 {
			base = 60 * time.Second
		}
		c.ReinforcementTimeout = base*2 + base/2
	}
	if c.TTL == 0 {
		c.TTL = 16
	}
	if c.ForwardJitter <= 0 {
		// Re-flood de-synchronization. At 13 kb/s a flooded message takes
		// tens of milliseconds of airtime per hop; neighbors that re-flood
		// within the same window collide at hidden terminals, so the
		// window must cover several message airtimes.
		c.ForwardJitter = 500 * time.Millisecond
	}
	if c.SeenTTL <= 0 {
		c.SeenTTL = 2 * time.Minute
	}
}

// Handles returned by the NR API calls.
type (
	// SubscriptionHandle identifies an active subscription.
	SubscriptionHandle int
	// PublicationHandle identifies an active publication.
	PublicationHandle int
	// FilterHandle identifies an installed filter.
	FilterHandle int
)

// DataCallback is invoked on local delivery of a matching message (paper:
// "a callback function is then invoked whenever relevant data arrives at
// the node"). m is borrowed for the call and must not be written: it is the
// node's receive or origination message, whose attributes the node clears
// when the call returns, and its string and blob values may be windows onto
// a payload the node was lent. A callback copies what it keeps (m.Clone(),
// strings.Clone).
type DataCallback func(m *message.Message)

// Stats counts a node's diffusion-layer activity. BytesSent over all nodes,
// normalized per distinct delivered event, is the Figure 8 metric.
type Stats struct {
	BytesSent          int
	SentByClass        [message.NumClasses]int
	ReceivedByClass    [message.NumClasses]int
	Duplicates         int // duplicate-suppression cache hits
	SeenMisses         int // cache misses (new message IDs cached)
	SeenEvicted        int // IDs dropped before SeenTTL because the cache was full
	LocalDeliveries    int
	DataSuppressed     int // data with no matching gradient state
	DataNoPath         int // locally originated data with no reinforced path
	NegReinforcements  int
	LinkSendErrors     int
	InterestsSeen      int // distinct (non-duplicate) interests processed
	GradientsCreated   int
	GradientsExpired   int
	FilterInvocations  int // messages handed to a filter callback
	NeighborDeaths     int // dead-neighbor events from the failure detector
	NeighborRecoveries int // recovered-neighbor events
	CustodyCaptured    int // data taken into local custody (no forward path)
	ReceiveMalformed   int // payloads from the link that did not unmarshal
}

type subKind uint8

const (
	subActive  subKind = iota // Subscribe: its group floods the interest
	subPassive                // Subscribe on an interest tap
	subLocal                  // SubscribeLocal: its group is a sink
)

type subscription struct {
	h    SubscriptionHandle
	cb   DataCallback
	g    *subGroup
	kind subKind
}

// subGroup is one distinct live subscribed vector. An interest is named by
// its attributes, so the node keeps one of each of these per vector,
// whatever its number of subscriptions.
type subGroup struct {
	// attrs is the vector and wire its interest form, in one array.
	attrs, wire attr.Vec
	ihash       uint64 // wire.Hash(): the key in groups and of its entry
	// tag names the group in midx.subs and groupsByTag for its whole life:
	// the handle of the subscription that created it.
	tag     uint64
	slot    match.Handle
	members []*subscription // ascending handles
	refresh sim.Timer       // armed while the group has an active member
}

// has reports whether the group has a member of kind k.
func (g *subGroup) has(k subKind) bool {
	return slices.ContainsFunc(g.members, func(s *subscription) bool { return s.kind == k })
}

func (g *subGroup) stopRefresh() {
	if g.refresh != nil {
		g.refresh.Cancel()
		g.refresh = nil
	}
}

type publication struct {
	attrs   attr.Vec
	count   int           // data messages sent
	lastExp time.Duration // time of the last exploratory message
	sentAny bool
}

// Node is one diffusion instance.
type Node struct {
	cfg    Config
	randID uint32
	pktNum uint32

	subs    map[SubscriptionHandle]*subscription
	pubs    map[PublicationHandle]*publication
	filters []*filter
	nextSub SubscriptionHandle
	nextPub PublicationHandle
	nextFil FilterHandle

	// groups holds the subscription groups by interest-form hash (distinct
	// vectors can share one), groupsByTag by delivery index tag.
	groups      map[uint64][]*subGroup
	groupsByTag map[uint64]*subGroup
	// filtersByHandle resolves a filter handle to its chain entry in O(1)
	// (SendMessageToNext and indexed chain dispatch).
	filtersByHandle map[FilterHandle]*filter

	// midx holds the inverted match indexes behind every match site; see
	// matchindex.go for the exactness and determinism contract.
	midx matchIndexes
	// emptyEntries tracks entries with no gradients and no local sinks —
	// the GC condition — so purge paths need not scan the entry table.
	emptyEntries map[uint64]*interestEntry
	// entryBufs/subBufs are free lists for pooled match-result snapshots
	// (see matchindex.go).
	entryBufs [][]*interestEntry
	subBufs   [][]*subscription

	entries map[uint64]*interestEntry // keyed by attr hash
	seen    seenCache
	// expFrom records which neighbor delivered each exploratory data
	// message, so positive reinforcement can retrace that message's exact
	// path (reinforcements carry the exploratory ID they reinforce).
	expFrom map[message.ID]message.NodeID

	// custodyLink is the link's custody-transfer surface, when it has one
	// (the UDP transport). Nil means store-and-carry replay (simulator).
	custodyLink CustodyLink

	// suppressForward disables core re-flooding for the message being
	// processed (set by ProcessNoForward).
	suppressForward bool

	// detached marks a crashed node: all timers are cancelled and every
	// reception, transmission and API send is ignored until Restart.
	detached bool

	housekeep sim.Timer

	// txBuf is the marshal buffer transmit reuses; Link.Send only borrows it.
	txBuf []byte
	// rx is the message Receive decodes into and tx the one an origination
	// builds (originate). Each is lent to filters and callbacks for the call
	// and its attributes are cleared on return; rxBusy and txBusy mark a call
	// in progress, and a call nested in it uses a message of its own.
	rx, tx         message.Message
	rxBusy, txBusy bool
	// fwdFree holds the idle jittered-forward records (forwardLater).
	fwdFree []*forward

	Stats Stats

	// cork is per-wake-up coalescing, nil unless the clock and the link
	// each have their half of it (corkLink).
	cork *wakeupCork
}

// wakeupCork corks the link on a wake-up's first reception or transmission
// and uncorks it at the wake-up's end.
type wakeupCork struct {
	link   corkLink
	clock  batchClock
	held   bool
	uncork func() // bound once, so that deferring it allocates nothing
}

func (c *wakeupCork) take() {
	if !c.held {
		c.held = true
		c.link.Cork()
		c.clock.Defer(c.uncork)
	}
}

// NewNode creates a diffusion node. The node is live immediately; the
// caller must wire its Receive method as the link-layer upcall.
func NewNode(cfg Config) *Node {
	cfg.fill()
	n := &Node{cfg: cfg, randID: cfg.Rand.Uint32()}
	n.seen = seenCache{max: seenMax, gone: n.seenGone}
	n.midx.init()
	if cfg.Custody != nil {
		if cl, ok := cfg.Link.(CustodyLink); ok {
			n.custodyLink = cl
		}
	}
	if bc, ok := cfg.Clock.(batchClock); ok {
		if cl, ok := cfg.Link.(corkLink); ok {
			c := &wakeupCork{link: cl, clock: bc}
			c.uncork = func() {
				c.held = false
				cl.Uncork()
			}
			n.cork = c
		}
	}
	n.housekeep = sim.Every(cfg.Clock, housekeepInterval, housekeepInterval, n.housekeeping)
	return n
}

// put sets (*m)[k] = v, making the map on first use: most nodes never
// write most of their tables, so NewNode makes none.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = map[K]V{}
	}
	(*m)[k] = v
}

// housekeepInterval is the period of the state GC pass; it must be well
// under SeenTTL so table sizes track traffic rate, not run length.
const housekeepInterval = 5 * time.Second

// ID returns the node's link-layer identifier.
func (n *Node) ID() uint32 { return n.cfg.Link.ID() }

// RunInfo returns info with the protocol rates a trace header records
// filled in as the node resolved them, defaults applied.
func (n *Node) RunInfo(info telemetry.RunInfo) telemetry.RunInfo {
	c := n.cfg
	info.InterestInterval, info.GradientLifetime = c.InterestInterval.String(), c.GradientLifetime.String()
	info.ExploratoryEvery, info.TTL = c.ExploratoryEvery, int(c.TTL)
	if c.ExploratoryInterval > 0 {
		info.ExploratoryInterval = c.ExploratoryInterval.String()
	}
	return info
}

// Close cancels the node's timers. The node must not be used afterwards.
func (n *Node) Close() {
	n.housekeep.Cancel()
	for _, g := range n.groupsByTag {
		g.stopRefresh()
	}
}

// Detach models a node crash: every timer is cancelled and, until Restart,
// the node ignores receptions, sends nothing, and rejects API sends with
// ErrDetached. Application state (subscriptions, publications, filters)
// survives — it lives in the node's nonvolatile program — but all protocol
// state behaves as if frozen in dead RAM. Detaching twice is a no-op.
func (n *Node) Detach() {
	if n.detached {
		return
	}
	n.detached = true
	n.Close()
}

// Restart reboots a detached node: gradients, the duplicate-suppression
// cache and reinforcement traces are dropped (volatile protocol state does
// not survive a crash), and the application layer re-subscribes and
// re-publishes — active subscriptions restart their interest floods and
// every publication's next data message is exploratory again, exactly as a
// freshly booted daemon would behave. Restarting an attached node is a
// no-op.
func (n *Node) Restart() {
	if !n.detached {
		return
	}
	n.detached = false
	n.entries, n.emptyEntries, n.expFrom = nil, nil, nil
	n.midx.entries.Reset()
	n.seen = seenCache{max: seenMax, gone: n.seenGone}
	for _, p := range n.pubs {
		p.count = 0
		p.lastExp = 0
		p.sentAny = false
	}
	for _, g := range n.groupsByTag {
		if g.has(subLocal) {
			// Re-install the local sink entry (SubscribeLocal does this at
			// subscription time).
			n.addSink(n.entryFor(g.wire, false), g)
		}
	}
	n.rearm()
	n.housekeep = sim.Every(n.cfg.Clock, housekeepInterval, housekeepInterval, n.housekeeping)
}

// Detached reports whether the node is currently crashed.
func (n *Node) Detached() bool { return n.detached }

// nextID allocates a fresh message ID.
func (n *Node) nextID() message.ID {
	n.pktNum++
	return message.ID{RandID: n.randID, PktNum: n.pktNum}
}

// allocFlow draws the flight-path sampling decision for one locally
// originated message: zero (unsampled) or a non-zero 16-bit flow ID. The
// random stream is consumed only when tracing is enabled, so a run with
// TraceSample == 0 is byte-identical to one on a build without tracing.
func (n *Node) allocFlow() uint16 {
	if n.cfg.Spans == nil || n.cfg.TraceSample <= 0 {
		return 0
	}
	if n.cfg.TraceSample < 1 && n.cfg.Rand.Float64() >= n.cfg.TraceSample {
		return 0
	}
	f := uint16(n.cfg.Rand.Uint32())
	if f == 0 {
		f = 1 // zero means unsampled on the wire
	}
	return f
}

// event describes m at this node for a ring, which stamps the time.
func (n *Node) event(v telemetry.Verb, m *message.Message, peer uint32) telemetry.Event {
	return telemetry.Event{Node: n.ID(), Peer: peer, ID: m.ID, Flow: m.Flow, Hop: m.HopCount, Verb: v, Class: m.Class}
}

// span records a flight-path event for m. An unsampled message (flow zero)
// costs one branch.
func (n *Node) span(v telemetry.Verb, layer telemetry.Layer, m *message.Message, peer uint32, reason telemetry.DropReason) {
	if m.Flow == 0 {
		return
	}
	e := n.event(v, m, peer)
	e.Layer, e.Reason = layer, reason
	n.cfg.Spans.Record(e)
}

// API errors.
var (
	ErrUnknownHandle = errors.New("core: unknown handle")
	ErrNoGradient    = errors.New("core: no matching gradient state")
	ErrDetached      = errors.New("core: node is detached (crashed)")
)

// Subscribe registers interest in the given attributes and returns a
// handle. Unless the subscription is a passive interest tap (it contains a
// "class EQ interest" formal — the paper's "subscribe for subscriptions"
// idiom), the vector's interest is originated after a small jitter and
// refreshed every InterestInterval: once per vector, however many
// subscriptions it has.
func (n *Node) Subscribe(attrs attr.Vec, cb DataCallback) SubscriptionHandle {
	return n.subscribe(attrs, cb, subscribeKind(attrs))
}

// subscribe adds a subscription of kind k on attrs to the group of that
// vector, creating the group on a vector no live subscription has. Its
// members stay in ascending handle order because handles only grow.
func (n *Node) subscribe(attrs attr.Vec, cb DataCallback, k subKind) SubscriptionHandle {
	n.nextSub++
	s := &subscription{h: n.nextSub, cb: cb, kind: k}
	ihash := attrs.Hash(interestClass(attrs)...)
	bucket := n.groups[ihash]
	if i := slices.IndexFunc(bucket, func(g *subGroup) bool { return g.attrs.Equal(attrs) }); i >= 0 {
		s.g = bucket[i]
	} else {
		wire := attrs.With(interestClass(attrs)...)
		s.g = &subGroup{attrs: wire[:len(attrs):len(attrs)], wire: wire, ihash: ihash, tag: uint64(s.h)}
		s.g.slot = n.midx.subs.Add(s.g.attrs, s.g.tag)
		put(&n.groups, ihash, append(bucket, s.g))
		put(&n.groupsByTag, s.g.tag, s.g)
	}
	s.g.members = append(s.g.members, s)
	put(&n.subs, s.h, s)
	switch {
	case k == subLocal:
		// Install the local entry so matching data finds a sink here.
		n.addSink(n.entryFor(s.g.wire, false), s.g)
	case k == subActive && s.g.refresh == nil:
		n.armRefresh(s.g)
	}
	return s.h
}

// addSink records group g as a sink of entry e.
func (n *Node) addSink(e *interestEntry, g *subGroup) {
	if !slices.Contains(e.sinks, g) {
		e.sinks = append(e.sinks, g)
		n.noteEntryEmptiness(e)
	}
}

// armRefresh starts (or restarts) a group's periodic interest origination,
// with a small initial jitter so co-located sinks do not synchronize
// floods.
func (n *Node) armRefresh(g *subGroup) {
	g.stopRefresh()
	first := time.Duration(n.cfg.Rand.Int63n(int64(n.cfg.ForwardJitter) + 1))
	var t sim.Timer
	var arm func()
	arm = func() {
		if n.detached {
			return
		}
		n.originate(message.Interest, g.wire, nil, attr.ClassIsInterest())
		if g.refresh != t {
			return // stopped or re-armed by a callback of the origination
		}
		jitter := time.Duration(n.cfg.Rand.Int63n(int64(n.cfg.InterestInterval) / 10))
		t = n.cfg.Clock.After(n.cfg.InterestInterval+jitter-n.cfg.InterestInterval/20, arm)
		g.refresh = t
	}
	t = n.cfg.Clock.After(first, arm)
	g.refresh = t
}

// rearm restarts the interest refresh of every group with an active
// member, in ascending order of their lowest handles, so the jitter draws
// follow the node's seed.
func (n *Node) rearm() {
	for _, h := range n.ActiveSubscriptions() {
		if g := n.subs[h].g; g.members[0].h == h && g.has(subActive) {
			n.armRefresh(g)
		}
	}
}

// subscribeKind says whether a Subscribe on attrs is an interest tap or a
// data subscription.
func subscribeKind(attrs attr.Vec) subKind {
	for _, a := range attrs {
		if a.Key == attr.KeyClass && a.Op == attr.EQ &&
			a.Val.Numeric() && int32(a.Val.AsFloat()) == attr.ClassInterest {
			return subPassive
		}
	}
	return subActive
}

// SubscribeLocal registers a subscription that never floods an interest —
// the sink side of one-phase push diffusion: matching exploratory data
// arriving at this node is delivered and reinforced, and the
// reinforcements (not interests) install the delivery path hop-by-hop
// back to the sources.
func (n *Node) SubscribeLocal(attrs attr.Vec, cb DataCallback) SubscriptionHandle {
	return n.subscribe(attrs, cb, subLocal)
}

// Unsubscribe cancels a subscription. Gradients elsewhere expire on their
// own once refreshes stop, exactly as in the paper.
func (n *Node) Unsubscribe(h SubscriptionHandle) error {
	s, ok := n.subs[h]
	if !ok {
		return fmt.Errorf("%w: subscription %d", ErrUnknownHandle, h)
	}
	delete(n.subs, h)
	g := s.g
	g.members = slices.DeleteFunc(g.members, func(o *subscription) bool { return o == s })
	if !g.has(subActive) {
		g.stopRefresh()
		// A group is a sink of its own interest entry, the only one keyed
		// by g.ihash, while it has a local or an active member.
		if e, ok := n.entries[g.ihash]; ok && !g.has(subLocal) {
			e.sinks = slices.DeleteFunc(e.sinks, func(o *subGroup) bool { return o == g })
			n.noteEntryEmptiness(e)
		}
	}
	if len(g.members) == 0 {
		n.midx.subs.Remove(g.slot)
		delete(n.groupsByTag, g.tag)
		n.groups[g.ihash] = slices.DeleteFunc(n.groups[g.ihash], func(o *subGroup) bool { return o == g })
		if len(n.groups[g.ihash]) == 0 {
			delete(n.groups, g.ihash)
		}
	}
	return nil
}

// Publish declares that this node can supply data matching attrs. The
// attributes given must cover what later Send calls emit.
func (n *Node) Publish(attrs attr.Vec) PublicationHandle {
	n.nextPub++
	put(&n.pubs, n.nextPub, &publication{attrs: attrs.Clone()})
	return n.nextPub
}

// Unpublish withdraws a publication.
func (n *Node) Unpublish(h PublicationHandle) error {
	if _, ok := n.pubs[h]; !ok {
		return fmt.Errorf("%w: publication %d", ErrUnknownHandle, h)
	}
	delete(n.pubs, h)
	return nil
}

// Send emits one data message for publication h, merging the publication
// attributes with extra, which is borrowed for the call. Following the
// paper, "if there are no active subscriptions, published data does not
// leave the node": without matching gradient state the message is counted
// in DataSuppressed and dropped.
// Messages are periodically marked exploratory (time-based by default,
// count-based when ExploratoryEvery is set); the first message always is.
func (n *Node) Send(h PublicationHandle, extra attr.Vec) error {
	return n.send(h, extra, false)
}

// SendExploratory emits one data message for publication h that is always
// exploratory: it floods along all gradients regardless of reinforcement.
// Use it for infrequent one-shot reports where flooding robustness
// matters more than path efficiency.
func (n *Node) SendExploratory(h PublicationHandle, extra attr.Vec) error {
	return n.send(h, extra, true)
}

// SendPush emits one-phase-push data: exploratory messages flood the whole
// network without any interest state, and plain data follows the gradients
// installed by sink reinforcements. Pair with SubscribeLocal on the sinks.
func (n *Node) SendPush(h PublicationHandle, extra attr.Vec) error {
	return n.send(h, extra.With(attr.AlgorithmIsPush()), false)
}

func (n *Node) send(h PublicationHandle, extra attr.Vec, forceExploratory bool) error {
	if n.detached {
		return ErrDetached
	}
	p, ok := n.pubs[h]
	if !ok {
		return fmt.Errorf("%w: publication %d", ErrUnknownHandle, h)
	}
	cls := message.Data
	switch {
	case forceExploratory:
		cls = message.ExploratoryData
	case n.cfg.ExploratoryEvery > 0:
		if p.count%n.cfg.ExploratoryEvery == 0 {
			cls = message.ExploratoryData
		}
	case !p.sentAny || n.cfg.Clock.Now()-p.lastExp >= n.cfg.ExploratoryInterval:
		cls = message.ExploratoryData
	}
	if cls == message.ExploratoryData {
		p.lastExp = n.cfg.Clock.Now()
	}
	p.sentAny = true
	p.count++
	n.originate(cls, p.attrs, extra, attr.ClassIsData())
	return nil
}

// originate dispatches one message this node starts, published data or an
// interest: attributes base, then extra, then class unless they carry one.
// The message is n.tx, lent to filters and callbacks for the call; an
// origination nested in another (a filter or callback on this node that
// sends) builds in a message of its own.
func (n *Node) originate(cls message.Class, base, extra attr.Vec, class attr.Attribute) {
	m, nested := &n.tx, n.txBusy
	if nested {
		m = new(message.Message)
	}
	attrs := append(append(m.Attrs[:0], base...), extra...)
	if _, ok := attrs.FindActual(attr.KeyClass); !ok {
		attrs = append(attrs, class)
	}
	*m = message.Message{Class: cls, ID: n.nextID(), PrevHop: selfID(n),
		NextHop: message.Broadcast, Flow: n.allocFlow(), Attrs: attrs}
	n.txBusy = true
	n.dispatch(m)
	if !nested {
		// An idle node pins nothing it was handed.
		clear(n.tx.Attrs)
		n.txBusy = false
	}
}

// Receive is the link-layer upcall: the MAC delivers every reassembled
// payload here. Malformed payloads are dropped, and counted.
//
// payload is borrowed for the call: a link may reuse it once Receive returns,
// as the MAC does. It is decoded in place, values being windows onto it, so
// what outlives the call is copied: an entry's or a pending forward's
// attributes (attr.Vec.Own), a message a filter or custody keeps (a Clone).
//
// On a corking link Receive corks, as transmit does, malformed payloads
// included: the link holds its ack of payload until the wake-up's end.
func (n *Node) Receive(from uint32, payload []byte) {
	if n.detached {
		return
	}
	if n.cork != nil {
		n.cork.take()
	}
	m, nested := &n.rx, n.rxBusy
	if nested {
		// A link that delivers synchronously re-entered us from inside the
		// reception that still reads n.rx.
		m = new(message.Message)
	}
	if err := message.UnmarshalView(m, payload); err != nil {
		n.Stats.ReceiveMalformed++
		return
	}
	// Trust the link sender over the (spoofable, possibly stale) header.
	m.PrevHop = message.NodeID(from)
	if int(m.Class) < len(n.Stats.ReceivedByClass) {
		n.Stats.ReceivedByClass[m.Class]++
	}
	// One fact, two retention policies: every reception is flight-recorded,
	// a sampled one is a span too.
	rx := n.event(telemetry.Recv, m, from)
	n.cfg.Flight.Record(rx)
	if m.Flow != 0 {
		n.cfg.Spans.Record(rx)
	}
	n.rxBusy = true
	n.dispatch(m)
	if !nested {
		// An idle node pins no payload.
		clear(n.rx.Attrs)
		n.rxBusy = false
	}
}

// dispatch runs a message through the filter chain; if no filter consumes
// it, the core processes it. A detached node processes nothing, so filter
// timers that fire across a crash cannot resurrect traffic.
func (n *Node) dispatch(m *message.Message) {
	if n.detached {
		return
	}
	// Custody acks are pure link-local control: they release the named
	// item and are never filtered, forwarded, or seen-cached (their ID is
	// the acknowledged message's ID, which must stay ack-able).
	if m.Class == message.CustodyAck {
		if m.PrevHop != selfID(n) {
			n.custodyDischarge(m.ID)
		}
		return
	}
	// A reception is already flight-recorded and, sampled, span-recorded;
	// an origination is recorded here, once it is known to enter the chain.
	if m.PrevHop == selfID(n) {
		n.cfg.Flight.Record(n.event(telemetry.Org, m, n.ID()))
		n.span(telemetry.Org, telemetry.LayerCore, m, n.ID(), telemetry.DropNone)
	}
	n.runChainFrom(m, 0)
}

// transmit sends m out the link to m.NextHop, accounting bytes. Jittered
// forwards scheduled before a crash land here after it; a detached node
// transmits nothing.
// transmit hands m to the link layer. The returned error is the link's
// admission verdict (e.g. a full MAC transmit queue); soft-state traffic
// ignores it — the next refresh retries — but custody replay uses it as
// backpressure, keeping custody of anything the link would have dropped.
func (n *Node) transmit(m *message.Message) error {
	if n.detached {
		return nil
	}
	if n.cork != nil {
		n.cork.take()
	}
	n.txBuf = m.AppendMarshal(n.txBuf[:0])
	payload := n.txBuf
	n.Stats.BytesSent += len(payload)
	if int(m.Class) < len(n.Stats.SentByClass) {
		n.Stats.SentByClass[m.Class]++
	}
	n.cfg.Flight.Record(n.event(telemetry.Send, m, uint32(m.NextHop)))
	// Store-and-carry custody holds every outgoing data message until the
	// next hop's CustodyAck releases it: originations survive first-hop
	// loss, and forwards (usually already admitted at receive time — the
	// Accept is then a held no-op) survive collisions past the MAC.
	if n.carryMode() && m.IsData() {
		if _, fresh := n.cfg.Custody.Accept(m.ID, payload); fresh {
			n.Stats.CustodyCaptured++
		}
	}
	// Reinforced-class data over a custody-capable link moves hop-by-hop
	// under custody transfer: take custody locally (durable when the queue
	// is journaled), then offer it to the next hop. The item stays queued —
	// surviving a partition or our own crash — until the peer's durable
	// accept releases it.
	if m.Class == message.Data && m.NextHop != message.Broadcast &&
		n.custodyLink != nil && n.custodyOn() {
		if held, _ := n.cfg.Custody.Accept(m.ID, payload); held {
			n.span(telemetry.CustodyAccept, telemetry.LayerCustody, m, n.ID(), telemetry.DropNone)
			if err := n.custodyLink.SendCustody(uint32(m.NextHop), m.ID, payload); err != nil {
				n.Stats.LinkSendErrors++
				n.span(telemetry.Drop, telemetry.LayerCore, m, uint32(m.NextHop), telemetry.DropLinkRefused)
				return err
			}
			return nil
		}
		// Custody refused (queue full): fall through to best-effort send.
	}
	if err := n.cfg.Link.Send(uint32(m.NextHop), payload); err != nil {
		n.Stats.LinkSendErrors++
		n.span(telemetry.Drop, telemetry.LayerCore, m, uint32(m.NextHop), telemetry.DropLinkRefused)
		return err
	}
	return nil
}

// forward is one jittered re-flood pending on the node's clock, pooled per
// node. Its message is a copy of the one it forwards that shares nothing
// with it: attributes in the record's own array, their values windows onto
// the record's own buffer (attr.Vec.Own), both reused.
type forward struct {
	n   *Node
	m   message.Message
	buf []byte
	ev  sim.Event
}

// forwardLater re-floods m one hop further after a random jitter.
func (n *Node) forwardLater(m *message.Message) {
	delay := time.Duration(n.cfg.Rand.Int63n(int64(n.cfg.ForwardJitter) + 1))
	var f *forward
	if k := len(n.fwdFree); k > 0 {
		f, n.fwdFree = n.fwdFree[k-1], n.fwdFree[:k-1]
	} else {
		f = &forward{n: n}
		f.ev.Bind(f.fire)
	}
	// m is usually the receive message, whose payload is only lent: copy it.
	attrs, buf := m.Attrs.Own(f.m.Attrs, f.buf)
	f.m, f.buf = *m, buf
	f.m.Attrs = attrs
	f.m.HopCount++
	f.m.PrevHop, f.m.NextHop = selfID(n), message.Broadcast
	sim.ArmOn(n.cfg.Clock, &f.ev, delay)
}

func (f *forward) fire() {
	n := f.n
	// A link-refused exploratory forward (MAC queue overflow, typically
	// under a custody replay burst) is a congestion loss: with custody on
	// the message is held like any other disruption and retried at the
	// link's pace, instead of becoming drop-tail loss mid-relay. An
	// interest is no data, so custody leaves a refused one alone.
	if n.transmit(&f.m) != nil {
		n.custodyCapture(&f.m)
	}
	n.fwdFree = append(n.fwdFree, f)
}

// SendDirect transmits m to m.NextHop without further filter or core
// processing. Filters use it to take over forwarding decisions (for
// example the geographic scoping filter).
func (n *Node) SendDirect(m *message.Message) {
	out := *m // transmit only marshals: the header copy shares Attrs
	out.PrevHop = selfID(n)
	if out.ID == (message.ID{}) {
		out.ID = n.nextID()
	}
	n.markSeen(out.ID)
	n.transmit(&out)
}

// markSeen records a message ID in the duplicate-suppression cache. Every
// insertion is by definition a cache miss (Duplicates counts the hits).
func (n *Node) markSeen(id message.ID) {
	n.Stats.SeenMisses++
	n.seen.mark(id, n.cfg.Clock.Now())
}

// firstSighting is markSeen for an ID that may be a duplicate: it reports
// false, and records nothing, if id is in the cache.
func (n *Node) firstSighting(id message.ID, now time.Duration) bool {
	if !n.seen.add(id, now) {
		return false
	}
	n.Stats.SeenMisses++
	return true
}

// seenGone drops the reinforcement trace of an ID leaving the cache.
func (n *Node) seenGone(id message.ID, evicted bool) {
	if evicted {
		n.Stats.SeenEvicted++
	}
	delete(n.expFrom, id)
}

// housekeeping purges expired gradients, empty entries, and old seen-IDs,
// then gives custodial data a periodic chance to move (the catch-all
// replay trigger: it needs no event, so it also drains custody restored
// from the journal after a warm restart).
func (n *Node) housekeeping() {
	now := n.cfg.Clock.Now()
	n.seen.expire(now, n.cfg.SeenTTL)
	for _, e := range n.entries {
		// A closed negative-reinforcement window's duplicate counts are
		// stale.
		dupsStale := now-e.dupSince > negRFWindow
		for i := range e.nbs {
			r := &e.nbs[i]
			if r.grad && now > r.expires {
				n.dropGradient(e, r)
			}
			if dupsStale {
				r.dups = 0
			}
		}
		e.compact()
		// With custody on, an interest whose gradients all decayed is
		// retained as a cached interest: a mobile custodian (the ferry)
		// must still know *what* is wanted to re-offer the interest and
		// route its custodial data at the next contact. The cache is
		// bounded by the number of distinct interests, not by traffic.
		if !e.hasGradient() && len(e.sinks) == 0 && !n.custodyOn() {
			n.dropEntry(e)
		}
	}
	n.ReplayCustody()
}

// ActiveSubscriptions returns the handles of every live subscription in
// ascending order. A live daemon's shutdown path uses it to withdraw the
// application layer without bookkeeping of its own.
func (n *Node) ActiveSubscriptions() []SubscriptionHandle {
	out := make([]SubscriptionHandle, 0, len(n.subs))
	for h := range n.subs {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// ActivePublications returns the handles of every live publication in
// ascending order.
func (n *Node) ActivePublications() []PublicationHandle {
	out := make([]PublicationHandle, 0, len(n.pubs))
	for h := range n.pubs {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

// SubscriptionAttrs returns the attribute formals of a live subscription
// (control-plane introspection); ok is false for unknown handles.
func (n *Node) SubscriptionAttrs(h SubscriptionHandle) (attr.Vec, bool) {
	s, ok := n.subs[h]
	if !ok {
		return nil, false
	}
	return s.g.attrs.Clone(), true
}

// PublicationAttrs returns the attributes of a live publication; ok is
// false for unknown handles.
func (n *Node) PublicationAttrs(h PublicationHandle) (attr.Vec, bool) {
	p, ok := n.pubs[h]
	if !ok {
		return nil, false
	}
	return p.attrs.Clone(), true
}

// Entries returns the number of live interest entries (diagnostics).
func (n *Node) Entries() int { return len(n.entries) }

// SeenSize returns the duplicate-suppression cache population; bounded by
// traffic rate × (SeenTTL + housekeepInterval) and by seenMax, not by run
// length (soak tests assert this).
func (n *Node) SeenSize() int { return n.seen.live }

// ExpFromSize returns the exploratory-arrival trace population; entries
// age out with their seen-cache records.
func (n *Node) ExpFromSize() int { return len(n.expFrom) }
