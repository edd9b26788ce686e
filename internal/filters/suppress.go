// Package filters provides the library of in-network processing filters
// the paper builds on top of the diffusion filter API (section 3.3, 5.1,
// 5.2): duplicate-suppression aggregation, delayed counting aggregation, a
// debugging tap, geographic interest scoping, and the SRM-style election
// used to choose a triggered sensor.
package filters

import (
	"strings"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// Suppression is the Figure 8 aggregation filter: it passes the first
// unique event and suppresses subsequent events with identical identity
// ("all nodes were configured with aggregation filters that pass the first
// unique event and suppress subsequent events with identical sequence
// numbers"). Identity is the tuple of values of the IdentityKeys actuals.
type Suppression struct {
	node   *core.Node
	clock  sim.Clock
	handle core.FilterHandle

	identityKeys []attr.Key
	ttl          time.Duration
	seen         map[string]time.Duration
	sweep        time.Duration   // when gc next drops expired identities
	idBuf        []byte          // scratch for the identity of the message in hand
	keys         strings.Builder // the arena seen's keys are cut from

	// Suppressed counts swallowed duplicates; Passed counts forwarded
	// uniques.
	Suppressed, Passed int
}

// SuppressionOptions configures NewSuppression.
type SuppressionOptions struct {
	// Pattern selects which messages the filter sees (one-way filter
	// match); nil sees everything.
	Pattern attr.Vec
	// IdentityKeys define event identity; default {KeyTask, KeySequence}.
	IdentityKeys []attr.Key
	// TTL is how long an identity is remembered (default 2 minutes).
	TTL time.Duration
	// Priority of the filter in the chain (default 100).
	Priority int16
}

// NewSuppression installs a suppression filter on n.
func NewSuppression(n *core.Node, clock sim.Clock, opt SuppressionOptions) *Suppression {
	if opt.IdentityKeys == nil {
		opt.IdentityKeys = []attr.Key{attr.KeyTask, attr.KeySequence}
	}
	if opt.TTL <= 0 {
		opt.TTL = 2 * time.Minute
	}
	if opt.Priority == 0 {
		opt.Priority = 100
	}
	s := &Suppression{
		node:         n,
		clock:        clock,
		identityKeys: opt.IdentityKeys,
		ttl:          opt.TTL,
		seen:         map[string]time.Duration{},
	}
	s.handle = n.AddFilter(opt.Pattern, opt.Priority, s.onMessage)
	return s
}

// Remove uninstalls the filter.
func (s *Suppression) Remove() { _ = s.node.RemoveFilter(s.handle) }

func (s *Suppression) onMessage(m *message.Message, h core.FilterHandle) {
	if !m.IsData() {
		s.node.SendMessageToNext(m, h)
		return
	}
	var ok bool
	if s.idBuf, ok = appendIdentity(s.idBuf[:0], m.Attrs, s.identityKeys); !ok {
		// Not an event we can identify: let it through untouched.
		s.node.SendMessageToNext(m, h)
		return
	}
	now := s.clock.Now()
	s.gc(now)
	// Looking up by string(bytes) allocates nothing.
	if at, dup := s.seen[string(s.idBuf)]; dup && now-at <= s.ttl {
		s.Suppressed++
		return // consumed: the duplicate stops here
	}
	// A first sighting's key is cut from the arena. A full arena is
	// replaced, not grown, so the keys already cut keep their bytes, and a
	// chunk is freed once gc has dropped its last key.
	if s.keys.Cap()-s.keys.Len() < len(s.idBuf) {
		s.keys = strings.Builder{}
		s.keys.Grow(max(keyChunk, len(s.idBuf)))
	}
	start := s.keys.Len()
	s.keys.Write(s.idBuf)
	s.seen[s.keys.String()[start:]] = now
	s.Passed++
	s.node.SendMessageToNext(m, h)
}

const keyChunk = 1024 // bytes in one key arena: a few dozen identities

// gc drops expired identities once per TTL, so seen holds at most two
// TTLs of them; an expired one already counts as unseen.
func (s *Suppression) gc(now time.Duration) {
	if now < s.sweep {
		return
	}
	s.sweep = now + s.ttl
	for k, at := range s.seen {
		if now-at > s.ttl {
			delete(s.seen, k)
		}
	}
}

// appendIdentity appends the identity-key actuals of attrs, rendered as a
// map key, to id. The second result is false unless every identity key has
// an actual: a message without a full identity (for example, no sequence
// number) is not an aggregatable event and must pass through.
func appendIdentity(id []byte, attrs attr.Vec, keys []attr.Key) ([]byte, bool) {
	for _, k := range keys {
		a, ok := attrs.FindActual(k)
		if !ok {
			return id, false
		}
		id = append(id, byte(k), ':')
		id = a.Val.AppendString(id)
		id = append(id, '|')
	}
	return id, true
}

// CountingAggregator is the paper's "more sophisticated filter": it delays
// the first copy of each event for Window, counts further detections of
// the same event arriving meanwhile, and forwards a single message
// carrying a "count" attribute. It trades latency for aggregation quality
// (section 6.1 discusses exactly this trade-off).
type CountingAggregator struct {
	node   *core.Node
	clock  sim.Clock
	handle core.FilterHandle

	identityKeys []attr.Key
	window       time.Duration
	pending      map[string]*pendingEvent
	idBuf        []byte // scratch for the identity of the message in hand

	// Merged counts events folded into a pending message; Flushed counts
	// forwarded aggregates.
	Merged, Flushed int
}

type pendingEvent struct {
	msg    *message.Message
	handle core.FilterHandle
	count  int32
}

// NewCountingAggregator installs a counting aggregator on n.
func NewCountingAggregator(n *core.Node, clock sim.Clock, pattern attr.Vec, window time.Duration, priority int16) *CountingAggregator {
	if window <= 0 {
		window = 250 * time.Millisecond
	}
	if priority == 0 {
		priority = 100
	}
	c := &CountingAggregator{
		node:         n,
		clock:        clock,
		identityKeys: []attr.Key{attr.KeyTask, attr.KeySequence},
		window:       window,
		pending:      map[string]*pendingEvent{},
	}
	c.handle = n.AddFilter(pattern, priority, c.onMessage)
	return c
}

// Remove uninstalls the filter, flushing nothing.
func (c *CountingAggregator) Remove() { _ = c.node.RemoveFilter(c.handle) }

func (c *CountingAggregator) onMessage(m *message.Message, h core.FilterHandle) {
	if !m.IsData() {
		c.node.SendMessageToNext(m, h)
		return
	}
	var ok bool
	if c.idBuf, ok = appendIdentity(c.idBuf[:0], m.Attrs, c.identityKeys); !ok {
		c.node.SendMessageToNext(m, h)
		return
	}
	if p, exists := c.pending[string(c.idBuf)]; exists {
		p.count++
		c.Merged++
		return // folded into the pending aggregate
	}
	id := string(c.idBuf)
	p := &pendingEvent{msg: m.Clone(), handle: h, count: 1}
	c.pending[id] = p
	c.clock.After(c.window, func() { c.flush(id) })
}

func (c *CountingAggregator) flush(id string) {
	p, ok := c.pending[id]
	if !ok {
		return
	}
	delete(c.pending, id)
	out := p.msg
	out.Attrs = out.Attrs.Without(attr.KeyCount).
		With(attr.Int32Attr(attr.KeyCount, attr.IS, p.count))
	c.Flushed++
	c.node.SendMessageToNext(out, p.handle)
}
