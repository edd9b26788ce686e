package core

import (
	"encoding/binary"
	"hash/maphash"
	"time"

	"diffusion/internal/message"
)

const (
	// seenChunkLen keeps a near-idle node's cache under 1 KB (640 B a chunk).
	seenChunkLen = 32
	// seenMax bounds the cache: ≈ 100 MB of records and buckets.
	seenMax = 1 << 22
	// seenChainMax is how many links one lookup may walk before sequence
	// placement is judged to have lost its bet. Random placement at load
	// ≤ 1 builds a chain this long in one of ~10⁷ full caches.
	seenChainMax = 16
	// seenDead stamps a record superseded by a refresh; clocks start at 0.
	seenDead = time.Duration(-1)
)

// seenSeed keys bucket placement once a cache has scattered.
var seenSeed = maphash.MakeSeed()

type seenChunk struct {
	rand, pkt, next [seenChunkLen]uint32
	at              [seenChunkLen]time.Duration
}

// seenCache is the duplicate-suppression cache: the message IDs this node
// has handled within SeenTTL (DESIGN.md §5 has the reasoning). Records
// (ID, at) are numbered in arrival order — the live ones are [head, tail)
// modulo 2³² — and sit in fixed-size chunks that a free list recycles.
// Stamps never decrease, so expiry pops the head. Lookup is by chained
// buckets: a chain runs newest-first and ends at the first link outside
// [head, tail), so popping never touches a bucket. An ID's bucket is its
// PktNum offset by its origin, until a lookup has to walk seenChainMax
// links; from then on it is a hash under seenSeed. Marking a present ID
// appends a record, unlinks the old one and stamps it seenDead: that one
// leaves unreported.
type seenCache struct {
	max        uint32                            // record bound
	gone       func(id message.ID, evicted bool) // an ID left the cache
	head, tail uint32
	live       int          // records not dead: the number of distinct IDs
	dir        []*seenChunk // ring: record s is slot s%seenChunkLen of dir[s/seenChunkLen%len]
	free       []*seenChunk
	buckets    []uint32 // newest record of each chain; len is a power of two ≥ tail-head
	scattered  bool
}

func (c *seenCache) rec(s uint32) (*seenChunk, uint32) {
	return c.dir[s/seenChunkLen&uint32(len(c.dir)-1)], s % seenChunkLen
}

func (c *seenCache) bucket(id message.ID) *uint32 {
	h := id.PktNum + id.RandID*0x9E3779B9
	if c.scattered {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[:4], id.RandID)
		binary.LittleEndian.PutUint32(b[4:], id.PktNum)
		h = uint32(maphash.Bytes(seenSeed, b[:]))
	}
	return &c.buckets[h&uint32(len(c.buckets)-1)]
}

// find returns the link that holds the number of id's record.
func (c *seenCache) find(id message.ID) (link *uint32, ok bool) {
	if c.head == c.tail {
		return nil, false
	}
	link = c.bucket(id)
	for links := 0; *link-c.head < c.tail-c.head; links++ {
		k, i := c.rec(*link)
		if k.rand[i] == id.RandID && k.pkt[i] == id.PktNum {
			return link, true
		}
		if links == seenChainMax && !c.scattered {
			c.scattered = true
			c.rebucket(len(c.buckets))
			return c.find(id)
		}
		link = &k.next[i]
	}
	return link, false
}

func (c *seenCache) has(id message.ID) bool {
	_, ok := c.find(id)
	return ok
}

// add records a first sighting of id; it reports false, and records
// nothing, when id is already present.
func (c *seenCache) add(id message.ID, now time.Duration) bool {
	if c.has(id) {
		return false
	}
	c.push(id, now)
	return true
}

// mark records id as handled at now whether or not it is present: a
// present ID's lifetime restarts.
func (c *seenCache) mark(id message.ID, now time.Duration) {
	if link, ok := c.find(id); ok {
		k, i := c.rec(*link)
		k.at[i], *link = seenDead, k.next[i]
		c.live--
	}
	c.push(id, now)
}

func (c *seenCache) push(id message.ID, now time.Duration) {
	if c.tail-c.head == c.max {
		c.pop(true)
	}
	if int(c.tail-c.head) == len(c.buckets) {
		c.rebucket(max(seenChunkLen, 2*len(c.buckets)))
	}
	if c.tail%seenChunkLen == 0 {
		c.placeChunk()
	}
	k, i := c.rec(c.tail)
	b := c.bucket(id)
	k.rand[i], k.pkt[i], k.at[i], k.next[i] = id.RandID, id.PktNum, now, *b
	*b = c.tail
	c.tail++
	c.live++
	// Record numbers wrap. Rebuilding twice per lap leaves no bucket or
	// link old enough to be mistaken for a live record 2³² pushes later.
	if c.tail<<1 == 0 {
		c.rebucket(len(c.buckets))
	}
}

// placeChunk puts a chunk under record tail, doubling the ring when the
// slot still holds the chunk of a live record.
func (c *seenCache) placeChunk() {
	if n := uint32(len(c.dir)); n == 0 || c.dir[c.tail/seenChunkLen&(n-1)] != nil {
		dir := make([]*seenChunk, max(4, 2*n))
		for j := uint32(0); j < n; j++ {
			at := c.head/seenChunkLen + j
			dir[at&(2*n-1)] = c.dir[at&(n-1)]
		}
		c.dir = dir
	}
	if len(c.free) == 0 {
		// One chunk for a near-idle node, an eighth more for a busy one:
		// storage follows population, allocations follow its logarithm.
		slab := make([]seenChunk, 1+(c.tail-c.head)/(8*seenChunkLen))
		for i := range slab {
			c.free = append(c.free, &slab[i])
		}
	}
	n := len(c.free) - 1
	c.dir[c.tail/seenChunkLen&uint32(len(c.dir)-1)], c.free = c.free[n], c.free[:n]
}

// pop removes the oldest record.
func (c *seenCache) pop(evicted bool) {
	k, i := c.rec(c.head)
	if k.at[i] != seenDead {
		c.live--
		c.gone(message.ID{RandID: k.rand[i], PktNum: k.pkt[i]}, evicted)
	}
	c.head++
	if c.head%seenChunkLen == 0 {
		c.free = append(c.free, k)
		c.dir[(c.head-1)/seenChunkLen&uint32(len(c.dir)-1)] = nil
	}
}

// expire pops every record older than ttl at now.
func (c *seenCache) expire(now, ttl time.Duration) {
	for c.head != c.tail {
		k, i := c.rec(c.head)
		if at := k.at[i]; at != seenDead && now-at <= ttl {
			return
		}
		c.pop(false)
	}
}

// rebucket rebuilds n buckets from the records.
func (c *seenCache) rebucket(n int) {
	if n != len(c.buckets) {
		c.buckets = make([]uint32, n)
	}
	for i := range c.buckets {
		c.buckets[i] = c.head - 1
	}
	for s := c.head; s != c.tail; s++ {
		k, i := c.rec(s)
		if k.at[i] == seenDead {
			continue
		}
		b := c.bucket(message.ID{RandID: k.rand[i], PktNum: k.pkt[i]})
		k.next[i], *b = *b, s
	}
}
