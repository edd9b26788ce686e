// Package microdiff implements micro-diffusion, the paper's section 4.3
// subset of directed diffusion for 8-bit motes: it retains only gradients,
// condenses attributes to a single tag, and supports only limited filters.
// Like the original (2050 bytes of code, 106 bytes of data on TinyOS), the
// mote state here is statically bounded: at most 5 active gradients and a
// duplicate cache of 10 packets holding the 2 relevant bytes per packet.
//
// A Gateway (gateway.go) bridges motes to a full-diffusion node, realizing
// the paper's tiered architecture: "less resource-constrained nodes will
// form the highest tier and act as gateways to the second tier".
package microdiff

import (
	"encoding/binary"
	"fmt"

	"diffusion/internal/core"
)

// Tag is the single condensed attribute identifying a micro-diffusion flow
// (the paper: "condensing attributes to a single tag").
type Tag uint16

// Static limits from the paper's implementation.
const (
	// MaxGradients is the static gradient table size (paper: "statically
	// configured to support 5 active gradients").
	MaxGradients = 5
	// CacheSize is the duplicate-suppression cache depth (paper: "a cache
	// of 10 packets of the 2 relevant bytes per packet").
	CacheSize = 10
)

// Micro packet classes.
const (
	classInterest = 1
	classData     = 2
)

// packetSize is the fixed micro wire format:
// class(1) tag(2) origin(2) seq(2) value(2).
const packetSize = 9

// Handler receives data values delivered to a local subscription.
type Handler func(tag Tag, value uint16)

// FilterFunc is micro-diffusion's limited filter: it may rewrite the value
// or suppress the packet (ok=false). One filter per tag.
type FilterFunc func(value uint16) (out uint16, ok bool)

// gradientSlot is one statically allocated gradient.
type gradientSlot struct {
	tag      Tag
	neighbor uint32
	active   bool
	age      uint16 // LRU counter
}

// cacheSlot is one duplicate-cache entry: the 2 relevant bytes are the
// origin and sequence identifying a packet.
type cacheSlot struct {
	origin, seq uint16
	valid       bool
}

// Mote is one micro-diffusion instance. It is event-driven and
// single-threaded like the full node.
type Mote struct {
	link core.Link
	seq  uint16
	tick uint16

	gradients [MaxGradients]gradientSlot
	cache     [CacheSize]cacheSlot
	cacheNext int

	subs    map[Tag]Handler
	filters map[Tag]FilterFunc

	Stats MoteStats
}

// MoteStats counts mote activity.
type MoteStats struct {
	PacketsSent      int
	PacketsReceived  int
	Duplicates       int
	GradientOverflow int
	Filtered         int
	Delivered        int
}

// NewMote creates a mote on the given link.
func NewMote(link core.Link) *Mote {
	if link == nil {
		panic("microdiff: link required")
	}
	return &Mote{
		link:    link,
		subs:    map[Tag]Handler{},
		filters: map[Tag]FilterFunc{},
	}
}

// ID returns the mote's link identifier.
func (m *Mote) ID() uint32 { return m.link.ID() }

// MemoryFootprint returns the static protocol state size in bytes,
// mirroring the paper's 106-byte data budget: gradients (5 × 9B as laid
// out on a mote: tag 2 + neighbor 2 + active 1, padded) plus cache
// (10 × 5B) plus counters.
func MemoryFootprint() int {
	const gradientBytes = 2 + 2 + 1 // tag, neighbor (16-bit on motes), active
	const cacheBytes = 2 + 2 + 1    // origin, seq, valid
	const counters = 4              // seq, tick
	return MaxGradients*gradientBytes + CacheSize*cacheBytes + counters
}

// Subscribe registers a local handler for tag and floods a micro-interest
// so upstream motes build gradients toward this mote.
func (m *Mote) Subscribe(tag Tag, h Handler) {
	m.subs[tag] = h
	m.seq++
	m.broadcastPacket(classInterest, tag, uint16(m.ID()), m.seq, 0)
}

// SetFilter installs the per-tag filter; a nil f removes it.
func (m *Mote) SetFilter(tag Tag, f FilterFunc) {
	if f == nil {
		delete(m.filters, tag)
		return
	}
	m.filters[tag] = f
}

// Send originates a data packet for tag carrying value. It is forwarded
// along matching gradients; without any, it goes nowhere.
func (m *Mote) Send(tag Tag, value uint16) {
	m.seq++
	origin := uint16(m.ID())
	m.remember(origin, m.seq)
	m.forwardData(tag, origin, m.seq, value, 0, true)
}

// Receive is the link-layer upcall.
func (m *Mote) Receive(from uint32, payload []byte) {
	if len(payload) != packetSize {
		return
	}
	class := payload[0]
	tag := Tag(binary.BigEndian.Uint16(payload[1:]))
	origin := binary.BigEndian.Uint16(payload[3:])
	seq := binary.BigEndian.Uint16(payload[5:])
	value := binary.BigEndian.Uint16(payload[7:])
	m.Stats.PacketsReceived++

	switch class {
	case classInterest:
		// Gradient toward the sender, then re-flood once.
		m.addGradient(tag, from)
		if m.isDuplicate(origin, seq) {
			m.Stats.Duplicates++
			return
		}
		m.remember(origin, seq)
		m.broadcastPacket(classInterest, tag, origin, seq, 0)
	case classData:
		if m.isDuplicate(origin, seq) {
			m.Stats.Duplicates++
			return
		}
		m.remember(origin, seq)
		if f, ok := m.filters[tag]; ok {
			out, pass := f(value)
			if !pass {
				m.Stats.Filtered++
				return
			}
			value = out
		}
		if h, ok := m.subs[tag]; ok && h != nil {
			m.Stats.Delivered++
			h(tag, value)
		}
		m.forwardData(tag, origin, seq, value, from, false)
	}
}

// forwardData unicasts a data packet along every gradient for tag except
// back to the arrival neighbor.
func (m *Mote) forwardData(tag Tag, origin, seq, value uint16, except uint32, local bool) {
	for i := range m.gradients {
		g := &m.gradients[i]
		if !g.active || g.tag != tag {
			continue
		}
		if !local && g.neighbor == except {
			continue
		}
		m.sendPacket(g.neighbor, classData, tag, origin, seq, value)
	}
}

// addGradient installs or refreshes a gradient, evicting the oldest slot
// when the static table is full.
func (m *Mote) addGradient(tag Tag, neighbor uint32) {
	m.tick++
	var free *gradientSlot
	var oldest *gradientSlot
	for i := range m.gradients {
		g := &m.gradients[i]
		if g.active && g.tag == tag && g.neighbor == neighbor {
			g.age = m.tick
			return
		}
		if !g.active && free == nil {
			free = g
		}
		if g.active && (oldest == nil || g.age < oldest.age) {
			oldest = g
		}
	}
	slot := free
	if slot == nil {
		slot = oldest
		m.Stats.GradientOverflow++
	}
	*slot = gradientSlot{tag: tag, neighbor: neighbor, active: true, age: m.tick}
}

// Gradients returns the number of active gradient slots (diagnostics).
func (m *Mote) Gradients() int {
	n := 0
	for i := range m.gradients {
		if m.gradients[i].active {
			n++
		}
	}
	return n
}

// isDuplicate checks the static packet cache.
func (m *Mote) isDuplicate(origin, seq uint16) bool {
	for i := range m.cache {
		c := &m.cache[i]
		if c.valid && c.origin == origin && c.seq == seq {
			return true
		}
	}
	return false
}

// remember records a packet identity in the ring cache.
func (m *Mote) remember(origin, seq uint16) {
	m.cache[m.cacheNext] = cacheSlot{origin: origin, seq: seq, valid: true}
	m.cacheNext = (m.cacheNext + 1) % CacheSize
}

func (m *Mote) broadcastPacket(class byte, tag Tag, origin, seq, value uint16) {
	m.sendPacket(core.Broadcast, class, tag, origin, seq, value)
}

func (m *Mote) sendPacket(dst uint32, class byte, tag Tag, origin, seq, value uint16) {
	var b [packetSize]byte
	b[0] = class
	binary.BigEndian.PutUint16(b[1:], uint16(tag))
	binary.BigEndian.PutUint16(b[3:], origin)
	binary.BigEndian.PutUint16(b[5:], seq)
	binary.BigEndian.PutUint16(b[7:], value)
	m.Stats.PacketsSent++
	if err := m.link.Send(dst, b[:]); err != nil {
		// Best-effort, like the radio itself.
		_ = err
	}
}

// String renders a diagnostic summary.
func (m *Mote) String() string {
	return fmt.Sprintf("mote %d: %d gradients, stats %+v", m.ID(), m.Gradients(), m.Stats)
}
