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
// draws. Cross-node delivery goes through Port.ArmRemote with the
// propagation delay.
package radio

import (
	"fmt"
	"math/rand"

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
// and the payload bytes.
type Handler func(from uint32, payload []byte)

// Channel is the shared medium.
type Channel struct {
	eng    *sim.Engine
	params Params
	topo   *topo.Topology
	nodes  map[uint32]*Transceiver
	links  map[linkKey]*link
	// out lists each sender's audible links in topology order — the
	// receivers a transmission must be scheduled at. Precomputing it makes
	// Transmit O(neighbors) instead of O(nodes).
	out map[uint32][]outLink
	// free is the free list of reception records; see getReception.
	free *reception
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

type linkKey struct{ from, to uint32 }

type outLink struct {
	to uint32
	l  *link
}

// link is per-directed-link channel state. Ownership: effDist is frozen at
// construction; forcedDown is written only by global (fault-injection)
// events; bad/nextTransition and the rng evolve only in the receiver's
// context.
type link struct {
	effDist float64
	// rng is the link's derived random stream (Gilbert–Elliott sojourns,
	// loss draws); independent of every other stream, so traffic on one
	// link never perturbs another.
	rng *rand.Rand
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
	c := &Channel{
		eng:    x,
		params: p,
		topo:   tp,
		nodes:  map[uint32]*Transceiver{},
		links:  map[linkKey]*link{},
		out:    map[uint32][]outLink{},
	}
	// Freeze per-directed-link effective distances up front so that the
	// channel realization is independent of traffic order.
	ids := tp.IDs()
	cutoff := p.audibleCutoff()
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			d := tp.Distance(a, b)
			if d >= cutoff {
				continue // inaudible regardless of the offset draw
			}
			rng := x.DeriveRand(sim.LinkStream(a, b)...)
			if p.AsymmetrySigma > 0 {
				d += rng.NormFloat64() * p.AsymmetrySigma
				if d < 0 {
					d = 0
				}
			}
			if d >= p.MaxRange {
				continue // inaudible; carries nothing, stores nothing
			}
			l := &link{effDist: d, rng: rng}
			if p.MeanBad > 0 {
				l.nextTransition = x.Now() + holdTime(l.rng, p.MeanGood)
			}
			c.links[linkKey{a, b}] = l
			c.out[a] = append(c.out[a], outLink{to: b, l: l})
		}
	}
	return c
}

// Airtime returns the serialization time of an n-byte frame.
func (c *Channel) Airtime(n int) time.Duration {
	bits := (n + c.params.PreambleBytes) * 8
	return time.Duration(bits) * time.Second / time.Duration(c.params.BitRate)
}

// Attach registers a transceiver for node id delivering frames to h.
func (c *Channel) Attach(id uint32, h Handler) *Transceiver {
	if _, ok := c.topo.Node(id); !ok {
		panic(fmt.Sprintf("radio: node %d not in topology", id))
	}
	if _, dup := c.nodes[id]; dup {
		panic(fmt.Sprintf("radio: node %d already attached", id))
	}
	t := &Transceiver{ch: c, id: id, port: c.eng.Port(id), handler: h}
	c.nodes[id] = t
	return t
}

// Stats sums the per-transceiver channel counters into the medium-wide
// view, in topology order.
func (c *Channel) Stats() ChannelStats {
	var s ChannelStats
	for _, id := range c.topo.IDs() {
		if t, ok := c.nodes[id]; ok {
			s.add(t.chStats)
		}
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
		l.nextTransition = at + holdTime(l.rng, mean)
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
	if _, ok := c.topo.Node(from); !ok {
		panic(fmt.Sprintf("radio: no link %d->%d in topology", from, to))
	}
	if _, ok := c.topo.Node(to); !ok {
		panic(fmt.Sprintf("radio: no link %d->%d in topology", from, to))
	}
	if l, ok := c.links[linkKey{from, to}]; ok {
		l.forcedDown = down
	}
}

// SetNodeDown blacks out (or restores) every directed link to and from id,
// turning the node's radio off for the rest of the network: it neither
// delivers, is heard, nor interferes. The node-crash fault uses it.
// Restoring a node clears any per-link blackouts previously set on its
// links with SetLinkDown. Global (fault-injection) context only.
func (c *Channel) SetNodeDown(id uint32, down bool) {
	if _, ok := c.topo.Node(id); !ok {
		panic(fmt.Sprintf("radio: node %d not in topology", id))
	}
	for _, ol := range c.out[id] {
		ol.l.forcedDown = down
	}
	for _, other := range c.topo.IDs() {
		if l, ok := c.links[linkKey{other, id}]; ok {
			l.forcedDown = down
		}
	}
}

// LinkDown reports whether the directed link from→to is forced down.
func (c *Channel) LinkDown(from, to uint32) bool {
	l, ok := c.links[linkKey{from, to}]
	return ok && l.forcedDown
}

// Transceiver is one node's half-duplex radio. All mutable state is owned
// by the node's own event context.
type Transceiver struct {
	ch      *Channel
	id      uint32
	port    sim.Port
	handler Handler

	txUntil time.Duration // end of our own transmission
	rxCount int           // ongoing audible receptions
	ongoing []*reception
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
	return t.port.Now() < t.txUntil || t.rxCount > 0
}

// Transmitting reports whether this node's own transmitter is active.
func (t *Transceiver) Transmitting() bool { return t.port.Now() < t.txUntil }

// reception is one frame in flight to one receiver. Its one event record
// fires twice: armed by the sender (ArmRemote) for the arrival, re-armed by
// the receiver for the end of the frame, after which the receiver frees it.
type reception struct {
	ev       sim.Event
	rx       *Transceiver // the receiver
	from     uint32
	l        *link
	data     []byte
	air      time.Duration
	begun    bool
	collided bool
	next     *reception // free list
}

func (r *reception) fire() {
	if !r.begun {
		r.begun = true
		r.rx.beginReception(r)
		return
	}
	r.rx.endReception(r)
}

// getReception takes a record from the channel's free list. The list is
// per channel, not per transceiver or per link: a list per transceiver keeps
// every node's own peak alive (live heap +42 % on the 1024-node grid in a
// prototype, against +2 %), and a record per directed link cannot be reused
// back to back (the next arrival is armed while the last end-of-frame is
// still pending).
func (c *Channel) getReception() *reception {
	r := c.free
	if r == nil {
		r = &reception{}
		r.ev.Bind(r.fire)
		return r
	}
	c.free, r.next = r.next, nil
	return r
}

func (c *Channel) putReception(r *reception) {
	r.data, r.begun, r.collided = nil, false, false
	r.next, c.free = c.free, r
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

	data := make([]byte, len(payload))
	copy(data, payload)

	// Audible receivers were precomputed in topology order, so iteration
	// is deterministic and O(neighbors).
	for _, ol := range c.out[t.id] {
		rx, attached := c.nodes[ol.to]
		if !attached {
			continue
		}
		l := ol.l
		if l.forcedDown {
			// The link is blacked out by fault injection: the frame would
			// have been audible here but the severed path swallows it.
			t.chStats.FramesBlackout++
			continue
		}
		rec := c.getReception()
		rec.rx, rec.from, rec.l, rec.data, rec.air = rx, t.id, l, data, air
		t.port.ArmRemote(ol.to, &rec.ev, c.params.PropDelay)
	}
	return air
}

// beginReception starts one frame's arrival at this receiver (receiver
// context).
func (t *Transceiver) beginReception(rec *reception) {
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
	t.rxCount++
	t.Stats.RxTime += rec.air
	t.ongoing = append(t.ongoing, rec)
	t.port.Arm(&rec.ev, rec.air)
}

// endReception frees the record and draws the frame's fate: missed, collided,
// lost, or decoded and handed up.
func (t *Transceiver) endReception(rec *reception) {
	c, l, from, data, air, collided := t.ch, rec.l, rec.from, rec.data, rec.air, rec.collided
	t.rxCount--
	t.removeOngoing(rec)
	c.putReception(rec)
	now := t.port.Now()
	// Half-duplex: if we transmitted during any part of the reception
	// window, the frame is missed.
	if t.txOverlapped(now - air) {
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
	if t.handler != nil {
		t.handler(from, data)
	}
}

func (t *Transceiver) removeOngoing(rec *reception) {
	for i, r := range t.ongoing {
		if r == rec {
			t.ongoing = append(t.ongoing[:i], t.ongoing[i+1:]...)
			return
		}
	}
}

// txOverlapped reports whether our transmitter was active at any point
// since the given instant. txUntil only moves forward, so checking the most
// recent transmission suffices.
func (t *Transceiver) txOverlapped(since time.Duration) bool {
	return t.txUntil > since
}
