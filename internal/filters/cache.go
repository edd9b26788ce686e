package filters

import (
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// Cache is the in-network data cache the paper's filter section motivates
// ("filters are typically used for in-network aggregation, collaborative
// signal processing, caching, and similar tasks") and that section 5.2's
// direct queries rely on ("he requests the status of the triggered sensor
// (either by subscribing or asking for recent data)").
//
// The filter remembers the most recent data message per identity passing
// through its node. When a fresh interest arrives whose formals the cached
// data satisfies, the cache replays the data immediately — so a new sink
// gets the current reading from the nearest caching node instead of
// waiting for the source's next report to cross the whole network.
type Cache struct {
	node   *core.Node
	clock  sim.Clock
	handle core.FilterHandle

	identityKeys []attr.Key
	ttl          time.Duration
	entries      map[string]cacheEntry
	answered     map[message.ID]bool

	// Cached counts stored messages; Replays counts cache answers.
	Cached, Replays int
}

type cacheEntry struct {
	attrs attr.Vec
	at    time.Duration
}

// CacheOptions configures NewCache.
type CacheOptions struct {
	// Pattern selects which messages the cache sees (nil = all).
	Pattern attr.Vec
	// IdentityKeys define which attribute values distinguish cached
	// items (default {KeyType, KeyTask, KeyInstance}: one slot per flow,
	// holding its most recent reading).
	IdentityKeys []attr.Key
	// TTL bounds staleness of replayed data (default 60 s).
	TTL time.Duration
	// Priority in the filter chain (default 120, above aggregation).
	Priority int16
}

// NewCache installs a data cache on n.
func NewCache(n *core.Node, clock sim.Clock, opt CacheOptions) *Cache {
	if opt.IdentityKeys == nil {
		opt.IdentityKeys = []attr.Key{attr.KeyType, attr.KeyTask, attr.KeyInstance}
	}
	if opt.TTL <= 0 {
		opt.TTL = 60 * time.Second
	}
	if opt.Priority == 0 {
		opt.Priority = 120
	}
	c := &Cache{
		node:         n,
		clock:        clock,
		identityKeys: opt.IdentityKeys,
		ttl:          opt.TTL,
		entries:      map[string]cacheEntry{},
		answered:     map[message.ID]bool{},
	}
	c.handle = n.AddFilter(opt.Pattern, opt.Priority, c.onMessage)
	return c
}

// Remove uninstalls the cache.
func (c *Cache) Remove() { _ = c.node.RemoveFilter(c.handle) }

func (c *Cache) onMessage(m *message.Message, h core.FilterHandle) {
	now := c.clock.Now()
	switch m.Class {
	case message.Data, message.ExploratoryData:
		// Remember the freshest reading per identity. The paper's core
		// also caches for duplicate suppression; this cache is the
		// application-level "recent data" store.
		if id, ok := cacheIdentity(m.Attrs, c.identityKeys); ok {
			c.entries[id] = cacheEntry{attrs: m.Clone().Attrs, at: now}
			c.Cached++
		}
	case message.Interest:
		// Pass the interest down first: the core sets up the gradient
		// toward the asker, which the replayed data then rides.
		c.node.SendMessageToNext(m, h)
		c.maybeReplay(m, now)
		return
	}
	c.node.SendMessageToNext(m, h)
}

// cacheIdentity keys a cached item by whichever identity-key actuals are
// present (unlike event suppression, a flow need not carry every key);
// ok is false when none are.
func cacheIdentity(attrs attr.Vec, keys []attr.Key) (string, bool) {
	var id []byte
	found := false
	for _, k := range keys {
		a, ok := attrs.FindActual(k)
		if !ok {
			id = append(id, 0xFF)
			continue
		}
		found = true
		id = append(id, byte(k), ':')
		id = a.Val.AppendString(id)
		id = append(id, '|')
	}
	return string(id), found
}

// maybeReplay answers a fresh interest from the cache.
func (c *Cache) maybeReplay(m *message.Message, now time.Duration) {
	if c.answered[m.ID] {
		return // one answer per interest origination, across copies
	}
	for id, e := range c.entries {
		if now-e.at > c.ttl {
			delete(c.entries, id)
			continue
		}
		if !attr.Match(e.attrs, m.Attrs) {
			continue
		}
		c.answered[m.ID] = true
		c.Replays++
		// Replay as a fresh exploratory origination: the gradients the
		// interest just refreshed will carry it back toward the asker,
		// and duplicate suppression keeps replays from other caching
		// nodes from multiplying.
		c.node.InjectMessage(&message.Message{
			Class:   message.ExploratoryData,
			NextHop: message.Broadcast,
			Attrs:   e.attrs.Clone(),
		})
		return
	}
}
