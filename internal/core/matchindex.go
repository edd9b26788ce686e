package core

import "diffusion/internal/match"

// The unified MatchIndex: every match site of the node — gradient-entry
// matching for data, local subscription delivery, the filter chain,
// custody replay candidate selection — runs on the inverted attribute
// indexes below instead of linear table scans, which is what lets one
// node carry millions of subscriptions (a broker; the paper's section 6.3
// anticipates exactly this class of matching optimization).
//
// Exactness and determinism contract:
//
//   - attr.Match / attr.OneWayMatch stay the oracle. The index pre-filter
//     may over-include; every candidate is verified against the compiled
//     form of the exact matcher before it is returned, so match results
//     are identical to the old scans (internal/match's differential test
//     pins this).
//   - Results are consumed in the same canonical orders as the scans
//     they replace: entries ascending by attribute hash, subscriptions
//     and filters ascending by handle, so traces stay byte-identical.
//   - Lookups are allocation-free in steady state: tag results land in
//     pooled buffers (free lists on the node — callbacks can re-enter
//     the core, so a single scratch buffer would be clobbered mid-use;
//     the pool hands nested calls distinct buffers).
type matchIndexes struct {
	// entries indexes interest-entry attributes; tag = entry hash.
	// Two-way: data matches an entry iff attr.Match(entry, data).
	entries match.Index
	// subs indexes subscription groups, one per distinct live vector; tag =
	// subGroup.tag. Two-way, like deliverLocal's attr.Match.
	subs match.Index
	// filters indexes filter patterns; tag = filter handle. One-way:
	// every formal of the filter satisfied by an actual of the message.
	filters match.Index

	tagBufs [][]uint64
}

// init sets the filters index one-way; the other two are zero, two-way.
func (x *matchIndexes) init() { x.filters = *match.New(match.OneWay) }

// getTags hands out a pooled tag buffer; putTags returns it. Buffers must
// be returned before any user callback runs — nested core entry then
// draws a fresh buffer instead of clobbering a live one.
func (x *matchIndexes) getTags() []uint64 {
	if n := len(x.tagBufs); n > 0 {
		b := x.tagBufs[n-1]
		x.tagBufs = x.tagBufs[:n-1]
		return b[:0]
	}
	return make([]uint64, 0, 16)
}

func (x *matchIndexes) putTags(b []uint64) {
	x.tagBufs = append(x.tagBufs, b)
}

// getEntryBuf hands out a pooled entry snapshot buffer (matchingEntries
// results). Unlike tag buffers these stay live across callbacks — nested
// calls pull distinct buffers from the free list.
func (n *Node) getEntryBuf() []*interestEntry {
	if l := len(n.entryBufs); l > 0 {
		b := n.entryBufs[l-1]
		n.entryBufs = n.entryBufs[:l-1]
		return b[:0]
	}
	return make([]*interestEntry, 0, 8)
}

func (n *Node) putEntryBuf(b []*interestEntry) {
	n.entryBufs = append(n.entryBufs, b)
}

func (n *Node) getSubBuf() []*subscription {
	if l := len(n.subBufs); l > 0 {
		b := n.subBufs[l-1]
		n.subBufs = n.subBufs[:l-1]
		return b[:0]
	}
	return make([]*subscription, 0, 8)
}

func (n *Node) putSubBuf(b []*subscription) {
	n.subBufs = append(n.subBufs, b)
}

// dropEntry removes an interest entry from the table and every secondary
// index. All entry deletions go through here.
func (n *Node) dropEntry(e *interestEntry) {
	delete(n.entries, e.hash)
	n.midx.entries.Remove(e.slot)
	delete(n.emptyEntries, e.hash)
}

// noteEntryEmptiness keeps the empty-entry set (no gradients, no local
// sinks — the GC condition) in sync after any gradient or sinks
// mutation. NeighborDead's sweep uses it to preserve the old full-scan
// GC semantics without the full scan.
func (n *Node) noteEntryEmptiness(e *interestEntry) {
	if !e.hasGradient() && len(e.sinks) == 0 {
		put(&n.emptyEntries, e.hash, e)
	} else {
		delete(n.emptyEntries, e.hash)
	}
}

// MatchStats aggregates the inverted-index counters across the node's
// three match indexes (interest entries, subscriptions, filters).
type MatchStats struct {
	// IndexKeys is the number of distinct attribute keys with postings.
	IndexKeys int
	// IndexSize is the number of indexed vectors: interest entries,
	// filters and subscription groups, one per distinct subscribed vector
	// however many subscriptions it has.
	IndexSize int
	// FallbackSize is the number of vectors with no indexable pivot
	// (scanned on every lookup).
	FallbackSize int
	// Lookups, CandidatesScanned, FallbackScans and Hits mirror
	// match.Stats, summed across the three indexes.
	Lookups           uint64
	CandidatesScanned uint64
	FallbackScans     uint64
	Hits              uint64
}

// MatchStats returns the node's aggregated match-index counters.
func (n *Node) MatchStats() MatchStats {
	var out MatchStats
	for _, ix := range []*match.Index{&n.midx.entries, &n.midx.subs, &n.midx.filters} {
		out.IndexKeys += ix.Keys()
		out.IndexSize += ix.Len()
		out.FallbackSize += ix.FallbackLen()
		st := ix.Stats()
		out.Lookups += st.Lookups
		out.CandidatesScanned += st.CandidatesScanned
		out.FallbackScans += st.FallbackScanned
		out.Hits += st.Hits
	}
	return out
}
