// Package radio simulates the shared wireless medium the paper's testbed
// ran on: Radiometrix RPC packet radios at about 13 kb/s with attenuated
// antennas, where "radio range varies greatly depending on node position",
// links can be asymmetric or intermittent (paper section 6.4), and hidden
// terminals make collisions endemic (section 6.1).
//
// The model is a broadcast channel over a topology:
//
//   - Reception probability falls from (1-BaseLoss) inside SolidRange to
//     zero at MaxRange, as a function of per-link *effective distance*.
//   - Each directed link gets a frozen random distance offset
//     (AsymmetrySigma), so A may hear B while B cannot hear A.
//   - Each directed link runs a two-state Gilbert–Elliott process; in the
//     bad state an extra loss probability applies, producing the
//     intermittent connectivity the paper observed.
//   - Transmissions occupy the medium for their serialization time at
//     BitRate. Two transmissions overlapping at a receiver corrupt each
//     other there (no capture), and a half-duplex transceiver cannot
//     receive while sending — together these reproduce hidden terminals.
//
// The channel runs on a sim.Engine. Every stream of randomness is derived
// per directed link from the master seed (sim.LinkStream), and all link
// state is owned by exactly one node's context — the receiver for
// Gilbert–Elliott evolution and loss draws, fault-injection (global) events
// for blackout flags — so traffic on one link never perturbs another's
// draws. A frame costs the engine two events whatever its audience: one
// remote arrival, armed by the sender with the propagation delay, begins it
// at every receiver, and one sim.Fanout ends it at each in canonical order.
package radio

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// Params configures the channel.
type Params struct {
	// BitRate is the radio bit rate in bits/second (paper: ~13 kb/s).
	BitRate int
	// PreambleBytes is per-frame physical overhead added to airtime.
	PreambleBytes int
	// SolidRange is the effective distance (m) up to which links are
	// reliable apart from BaseLoss.
	SolidRange float64
	// MaxRange is the effective distance at which reception probability
	// reaches zero; beyond it a transmitter is inaudible (it neither
	// delivers nor causes collisions or carrier).
	MaxRange float64
	// BaseLoss is the frame loss probability inside SolidRange.
	BaseLoss float64
	// AsymmetrySigma is the standard deviation (m) of the per-directed-link
	// effective-distance offset. Zero disables asymmetry.
	AsymmetrySigma float64
	// MeanGood and MeanBad are the Gilbert–Elliott state holding times.
	// MeanBad <= 0 disables intermittency.
	MeanGood, MeanBad time.Duration
	// BadLoss is the extra loss probability while a link is in the bad
	// state.
	BadLoss float64
	// PropDelay is the fixed propagation delay.
	PropDelay time.Duration
	// CaptureRatio enables the capture effect: when two frames overlap at
	// a receiver, a frame whose effective link distance is at most
	// CaptureRatio times the interferer's survives while the interferer
	// is corrupted. Zero disables capture (both frames corrupt).
	CaptureRatio float64
}

// DefaultParams returns the testbed-calibrated channel: 13 kb/s, reliable
// to 13.5 m, fading to nothing at 19 m, mildly lossy, asymmetric, and
// intermittent.
func DefaultParams() Params {
	return Params{
		BitRate:       13000,
		PreambleBytes: 8,
		SolidRange:    13.5,
		MaxRange:      19,
		// Loss is per fragment; a 112-byte event crosses 5 fragments and
		// 4-5 hops, so per-fragment loss compounds steeply. These values
		// are calibrated so end-to-end event delivery lands in the 55-80%
		// band the paper reports under load (section 6.1).
		BaseLoss:       0.005,
		AsymmetrySigma: 0.8,
		MeanGood:       120 * time.Second,
		MeanBad:        2 * time.Second,
		BadLoss:        0.5,
		PropDelay:      3 * time.Microsecond,
		CaptureRatio:   0.85,
	}
}

// PerfectParams returns an idealized loss-free channel (still rate-limited
// and collision-prone), useful for unit tests and ablations.
func PerfectParams() Params {
	p := DefaultParams()
	p.BaseLoss = 0
	p.AsymmetrySigma = 0
	p.MeanBad = 0
	return p
}

// Handler receives successfully decoded frames: the link-layer sender ID
// and the payload bytes. The payload is borrowed for the call: the channel
// reuses its buffer for a later frame, so a handler copies what it keeps.
type Handler func(from uint32, payload []byte)

// Channel is the shared medium. It is built in slabs: one for the
// transceivers and one for the links, each sized once, so a network's
// construction allocates the same whatever its number of links.
type Channel struct {
	eng    *sim.Engine
	params Params
	// ids are the topology's node IDs ascending; node ids[i]'s transceiver
	// is trx[i], attached or not.
	ids []uint32
	trx []Transceiver
	// links holds every audible directed link, by sender in ID order and
	// each sender's in receiver-ID order — the order a transmission's
	// end-of-frame keys must ascend in, and the order link looks a link up
	// in. A transceiver's out is its run, so Transmit is O(neighbors).
	links []link
	// free is the free list of transmission records; see getTransmission.
	free *transmission
	// decoded, when set, sees every decoded frame before its handler does.
	decoded func(at time.Duration, from, to uint32, data []byte)
}

// ChannelStats aggregates medium-wide counters.
type ChannelStats struct {
	FramesSent       int
	FramesDelivered  int
	FramesLost       int // channel loss draws
	FramesCollided   int // receptions corrupted by overlap
	FramesHalfDuplex int // receptions missed because the receiver was sending
	FramesBlackout   int // receptions suppressed by a forced-down link (fault injection)
}

// add accumulates other into s.
func (s *ChannelStats) add(o ChannelStats) {
	s.FramesSent += o.FramesSent
	s.FramesDelivered += o.FramesDelivered
	s.FramesLost += o.FramesLost
	s.FramesCollided += o.FramesCollided
	s.FramesHalfDuplex += o.FramesHalfDuplex
	s.FramesBlackout += o.FramesBlackout
}

// link is per-directed-link channel state. Ownership: effDist is frozen at
// construction; forcedDown is written only by global (fault-injection)
// events; bad/nextTransition and the rng evolve only in the receiver's
// context.
type link struct {
	rx      *Transceiver // the receiver, which receives once attached
	effDist float64
	// rng is the link's derived random stream, sim.LinkStream (Gilbert–
	// Elliott sojourns, loss draws); independent of every other stream, so
	// traffic on one link never perturbs another.
	rng sim.Stream
	to  uint32 // the receiver's ID
	// forcedDown blacks the link out entirely (fault injection): the
	// transmitter is inaudible at the receiver — no delivery, no carrier,
	// no collisions — as if an obstruction severed the path.
	forcedDown bool
	// Gilbert–Elliott lazy state.
	bad            bool
	nextTransition time.Duration
}

// audibleCutoff returns the base distance beyond which a directed link can
// never be audible: MaxRange plus six sigmas of asymmetry offset. Pairs
// past it carry no frames, so no link state is materialized for them —
// a 1024-node grid stores thousands of links instead of a million.
func (p Params) audibleCutoff() float64 {
	return p.MaxRange + 6*p.AsymmetrySigma
}

// NewChannel builds a channel over the given topology on the engine. All
// randomness comes from per-link streams derived from the engine's seed.
func NewChannel(x *sim.Engine, tp *topo.Topology, p Params) *Channel {
	if p.BitRate <= 0 {
		panic("radio: BitRate must be positive")
	}
	if p.MaxRange < p.SolidRange {
		panic("radio: MaxRange must be >= SolidRange")
	}
	ids := tp.IDs()
	slices.Sort(ids)
	c := &Channel{eng: x, params: p, ids: ids, trx: make([]Transceiver, len(ids))}
	// Freeze per-directed-link effective distances up front so that the
	// channel realization is independent of traffic order.
	cutoff := p.audibleCutoff()
	pos := make([]topo.Node, len(ids))
	for i, id := range ids {
		pos[i], _ = tp.Node(id)
	}
	// rng is each candidate link's stream in turn, declared once because a
	// drawn stream escapes; a link that is kept keeps a copy.
	var rng sim.Stream
	// The first pass counts the audible links and the second fills a slab
	// of that many, so the links cost one allocation.
	n := 0
	for pass := range 2 {
		c.links = make([]link, 0, n)
		for i, a := range ids {
			first := len(c.links)
			for j, b := range ids {
				if i == j {
					continue
				}
				// Distance is never below the larger axis gap plus the floor
				// penalty (Hypot never rounds below its larger side), so a
				// pair whose bound reaches the cutoff is skipped without
				// calling it.
				bound := max(math.Abs(pos[i].X-pos[j].X), math.Abs(pos[i].Y-pos[j].Y))
				if pos[i].Floor != pos[j].Floor {
					bound += tp.FloorPenalty
				}
				if bound >= cutoff {
					continue
				}
				d := tp.Distance(a, b)
				if d >= cutoff {
					continue // inaudible regardless of the offset draw
				}
				rng = x.Stream(sim.LinkStream(a, b)...)
				if p.AsymmetrySigma > 0 {
					d = max(d+rand.New(&rng).NormFloat64()*p.AsymmetrySigma, 0)
				}
				if d >= p.MaxRange {
					continue // inaudible; carries nothing, stores nothing
				}
				if pass == 0 {
					n++
					continue
				}
				c.links = append(c.links, link{to: b, rx: &c.trx[j], effDist: d, rng: rng})
				if l := &c.links[len(c.links)-1]; p.MeanBad > 0 {
					l.nextTransition = x.Now() + holdTime(rand.New(&l.rng), p.MeanGood)
				}
			}
			c.trx[i] = Transceiver{ch: c, id: a, out: c.links[first:len(c.links):len(c.links)]}
		}
	}
	return c
}

// index returns node id's position in ids.
func (c *Channel) index(id uint32) (int, bool) { return slices.BinarySearch(c.ids, id) }

// Airtime returns the serialization time of an n-byte frame.
func (c *Channel) Airtime(n int) time.Duration {
	bits := (n + c.params.PreambleBytes) * 8
	return time.Duration(bits) * time.Second / time.Duration(c.params.BitRate)
}

// Attach registers a transceiver for node id delivering frames to h.
func (c *Channel) Attach(id uint32, h Handler) *Transceiver {
	i, ok := c.index(id)
	if !ok {
		panic(fmt.Sprintf("radio: node %d not in topology", id))
	}
	t := &c.trx[i]
	if t.port != nil {
		panic(fmt.Sprintf("radio: node %d already attached", id))
	}
	t.port, t.handler = c.eng.Port(id), h
	return t
}

// OnDecode has fn see every frame a receiver decodes, before the receiver's
// handler: the instant, the sender, the receiver and the bytes, borrowed
// for the call. It observes only; set it before the run starts.
func (c *Channel) OnDecode(fn func(at time.Duration, from, to uint32, data []byte)) { c.decoded = fn }

// Stats sums the per-transceiver channel counters into the medium-wide
// view.
func (c *Channel) Stats() ChannelStats {
	var s ChannelStats
	for i := range c.trx {
		s.add(c.trx[i].chStats)
	}
	return s
}

// holdTime draws a Gilbert–Elliott sojourn with the given mean from rng.
func holdTime(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// linkBad lazily evolves and reports the Gilbert–Elliott state of l at
// time now (receiver context only).
func (c *Channel) linkBad(l *link, now time.Duration) bool {
	if c.params.MeanBad <= 0 {
		return false
	}
	for l.nextTransition <= now {
		l.bad = !l.bad
		at := l.nextTransition
		mean := c.params.MeanGood
		if l.bad {
			mean = c.params.MeanBad
		}
		l.nextTransition = at + holdTime(rand.New(&l.rng), mean)
		if l.nextTransition <= at {
			l.nextTransition = at + time.Nanosecond
		}
	}
	return l.bad
}

// lossProb returns the loss probability for effective distance d, before
// the Gilbert–Elliott penalty.
func (c *Channel) lossProb(d float64) float64 {
	p := c.params
	switch {
	case d <= p.SolidRange:
		return p.BaseLoss
	case d >= p.MaxRange:
		return 1
	default:
		// Quadratic ramp from BaseLoss at SolidRange to 1 at MaxRange.
		f := (d - p.SolidRange) / (p.MaxRange - p.SolidRange)
		return p.BaseLoss + (1-p.BaseLoss)*f*f
	}
}

// SetLinkDown forces the directed link from→to into (or out of) blackout.
// While down the link delivers nothing and contributes no carrier or
// interference, modelling a severed path rather than a noisy one. Fault
// injection uses it for link blackouts and partitions; unknown IDs panic
// (a scenario-construction error). Blacking out a pair that is already out
// of radio range is a no-op. Must be called from global (fault-injection)
// context, never from node event handlers.
func (c *Channel) SetLinkDown(from, to uint32, down bool) {
	_, okFrom := c.index(from)
	if _, okTo := c.index(to); !okFrom || !okTo {
		panic(fmt.Sprintf("radio: no link %d->%d in topology", from, to))
	}
	if l := c.link(from, to); l != nil {
		l.forcedDown = down
	}
}

// link returns the directed link from→to, or nil when it is out of range.
func (c *Channel) link(from, to uint32) *link {
	i, ok := c.index(from)
	if !ok {
		return nil
	}
	out := c.trx[i].out
	if j, ok := slices.BinarySearchFunc(out, to, func(l link, to uint32) int {
		return cmp.Compare(l.to, to)
	}); ok {
		return &out[j]
	}
	return nil
}

// SetNodeDown blacks out (or restores) every directed link to and from id,
// turning the node's radio off for the rest of the network: it neither
// delivers, is heard, nor interferes. The node-crash fault uses it.
// Restoring a node clears any per-link blackouts previously set on its
// links with SetLinkDown. Global (fault-injection) context only.
func (c *Channel) SetNodeDown(id uint32, down bool) {
	i, ok := c.index(id)
	if !ok {
		panic(fmt.Sprintf("radio: node %d not in topology", id))
	}
	for j := range c.trx[i].out {
		c.trx[i].out[j].forcedDown = down
	}
	for _, from := range c.ids {
		if l := c.link(from, id); l != nil {
			l.forcedDown = down
		}
	}
}

// LinkDown reports whether the directed link from→to is forced down.
func (c *Channel) LinkDown(from, to uint32) bool {
	l := c.link(from, to)
	return l != nil && l.forcedDown
}

// Transceiver is one node's half-duplex radio. All mutable state is owned
// by the node's own event context.
type Transceiver struct {
	ch      *Channel
	id      uint32
	port    sim.Port // nil until the node attaches
	handler Handler
	out     []link // the links this node sends on

	txUntil time.Duration // end of our own transmission
	ongoing []*rxSlot     // audible frames in progress
	Stats   TransceiverStats
	// chStats is this node's contribution to the medium-wide counters:
	// sender-side counts (sent, blackout) accumulate at the transmitter,
	// receiver-side counts (delivered, lost, collided, half-duplex) at the
	// receiver — so every counter has one writer.
	chStats ChannelStats
}

// TransceiverStats counts per-node radio activity; the Figure 8 experiment
// reads BytesSent, and the energy model reads the time accumulators.
type TransceiverStats struct {
	FramesSent     int
	BytesSent      int
	FramesReceived int
	BytesReceived  int
	TxTime         time.Duration
	RxTime         time.Duration
}

// ID returns the node id.
func (t *Transceiver) ID() uint32 { return t.id }

// Airtime returns the serialization time of an n-byte frame on this
// transceiver's channel.
func (t *Transceiver) Airtime(n int) time.Duration { return t.ch.Airtime(n) }

// Busy reports carrier: true while this node is transmitting or any audible
// transmission is in progress. MAC carrier sense uses this.
func (t *Transceiver) Busy() bool {
	return t.port.Now() < t.txUntil || len(t.ongoing) > 0
}

// Transmitting reports whether this node's own transmitter is active.
func (t *Transceiver) Transmitting() bool { return t.port.Now() < t.txUntil }

// transmission is one frame on the air. The sender arms arrive once for
// the whole audience; its callback begins the frame at every receiver, each
// of which joins end with its own end-of-frame key. The receiver whose
// sub-event runs last frees the record once its handler has returned, and
// data keeps its buffer for the record's next frame.
type transmission struct {
	arrive sim.Event
	end    sim.Fanout
	ch     *Channel
	from   uint32
	data   []byte
	air    time.Duration
	rx     []rxSlot      // the audience, in receiver-ID order
	next   *transmission // free list
}

// rxSlot is one receiver's share of a transmission, over link l; its
// receiver's ongoing list points at it for as long as the frame lasts there.
type rxSlot struct {
	l        *link
	collided bool
}

// getTransmission takes a record from the channel's free list. The list is
// per channel, not per transceiver: a sender needs two records back to back
// (the next arrival is armed while the last end of frame is still pending),
// and a list per node keeps every node's own peak alive.
func (c *Channel) getTransmission() *transmission {
	tx := c.free
	if tx == nil {
		tx = &transmission{ch: c}
		tx.arrive.Bind(tx.begin)
		tx.end.Bind(tx.endAt)
		return tx
	}
	c.free, tx.next = tx.next, nil
	return tx
}

func (c *Channel) putTransmission(tx *transmission) {
	tx.rx = tx.rx[:0]
	tx.next, c.free = c.free, tx
}

// Transmit broadcasts payload on the medium. It returns the airtime. The
// caller (the MAC) must not call Transmit again until the airtime elapses;
// doing so panics, because it indicates a MAC bug rather than a channel
// condition.
func (t *Transceiver) Transmit(payload []byte) time.Duration {
	c := t.ch
	now := t.port.Now()
	if now < t.txUntil {
		panic(fmt.Sprintf("radio: node %d transmit while transmitting", t.id))
	}
	air := c.Airtime(len(payload))
	t.txUntil = now + air
	t.Stats.FramesSent++
	t.Stats.BytesSent += len(payload)
	t.Stats.TxTime += air
	t.chStats.FramesSent++

	// Audible receivers were precomputed in ID order, so iteration is
	// deterministic and O(neighbors).
	tx := c.getTransmission()
	for i := range t.out {
		l := &t.out[i]
		if l.rx.port == nil {
			continue // not attached
		}
		if l.forcedDown {
			// The link is blacked out by fault injection: the frame would
			// have been audible here but the severed path swallows it.
			t.chStats.FramesBlackout++
			continue
		}
		tx.rx = append(tx.rx, rxSlot{l: l})
	}
	if len(tx.rx) == 0 {
		c.putTransmission(tx)
		return air
	}
	tx.from, tx.air = t.id, air
	tx.data = append(tx.data[:0], payload...)
	// One arrival for the whole audience, addressed to its first member.
	t.port.ArmRemote(tx.rx[0].l.to, &tx.arrive, c.params.PropDelay)
	return air
}

// begin starts the frame at every receiver and arms its one end of frame.
// One event can stand for all the arrivals because nothing sorts between
// one sender's consecutive remote keys and, airtime being positive, nothing
// an arrival arms is due before the last of them.
func (tx *transmission) begin() {
	for i := range tx.rx {
		r := &tx.rx[i]
		r.l.rx.beginReception(r, tx.air)
		r.l.rx.port.Join(&tx.end, tx.air)
	}
	tx.ch.eng.ArmFanout(&tx.end)
}

// beginReception resolves the arriving frame against the ones already in
// progress at this receiver (receiver context).
func (t *Transceiver) beginReception(rec *rxSlot, air time.Duration) {
	// Overlap resolution: without capture both frames corrupt; with
	// capture, a clearly stronger (closer) frame survives the overlap.
	ratio := t.ch.params.CaptureRatio
	for _, other := range t.ongoing {
		switch {
		case ratio > 0 && rec.l.effDist <= ratio*other.l.effDist:
			other.collided = true
		case ratio > 0 && other.l.effDist <= ratio*rec.l.effDist:
			rec.collided = true
		default:
			other.collided = true
			rec.collided = true
		}
	}
	t.Stats.RxTime += air
	t.ongoing = append(t.ongoing, rec)
}

// endAt ends the frame at its i-th receiver (receiver context): it frees the
// record after the last one and draws the frame's fate there — missed,
// collided, lost, or decoded and handed up.
func (tx *transmission) endAt(i int) {
	rec := &tx.rx[i]
	l, collided := rec.l, rec.collided
	t := l.rx
	c, from, data, air := tx.ch, tx.from, tx.data, tx.air
	t.removeOngoing(rec)
	if i == len(tx.rx)-1 {
		// Once the handler has returned: it borrows data and may transmit.
		defer c.putTransmission(tx)
	}
	now := t.port.Now()
	// Half-duplex: if we transmitted during any part of the reception
	// window, the frame is missed. txUntil only moves forward, so the most
	// recent transmission is the one to check.
	if t.txUntil > now-air {
		t.chStats.FramesHalfDuplex++
		return
	}
	if collided {
		t.chStats.FramesCollided++
		return
	}
	loss := c.lossProb(l.effDist)
	if c.linkBad(l, now) {
		loss = loss + (1-loss)*c.params.BadLoss
	}
	if l.rng.Float64() < loss {
		t.chStats.FramesLost++
		return
	}
	t.Stats.FramesReceived++
	t.Stats.BytesReceived += len(data)
	t.chStats.FramesDelivered++
	if c.decoded != nil {
		c.decoded(now, from, t.id, data)
	}
	if t.handler != nil {
		t.handler(from, data)
	}
}

func (t *Transceiver) removeOngoing(rec *rxSlot) {
	for i, r := range t.ongoing {
		if r == rec {
			t.ongoing = append(t.ongoing[:i], t.ongoing[i+1:]...)
			return
		}
	}
}
