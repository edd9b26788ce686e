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
//   - Lookups are allocation-free in steady state: results land in
//     pooled buffers (see freeList).
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

	// tagBufs hold lookup results; each is put back before any user
	// callback runs. entryBufs (matchingEntries snapshots) and subBufs
	// stay live across callbacks.
	tagBufs   freeList[uint64]
	entryBufs freeList[*interestEntry]
	subBufs   freeList[*subscription]
}

// init sets the filters index one-way (the other two are zero, two-way)
// and the buffers' first capacities.
func (x *matchIndexes) init() {
	x.filters = *match.New(match.OneWay)
	x.tagBufs.size, x.entryBufs.size, x.subBufs.size = 16, 8, 8
}

// freeList pools buffers: get hands out a spare one emptied, or a new one
// of capacity size, and put takes one back. Callbacks can re-enter the
// core, so a single scratch buffer would be clobbered mid-use; the list
// hands nested calls distinct buffers.
type freeList[T any] struct {
	bufs [][]T
	size int
}

func (l *freeList[T]) get() []T {
	if n := len(l.bufs); n > 0 {
		b := l.bufs[n-1]
		l.bufs = l.bufs[:n-1]
		return b[:0]
	}
	return make([]T, 0, l.size)
}

func (l *freeList[T]) put(b []T) { l.bufs = append(l.bufs, b) }

// dropEntry removes an interest entry from the table and every secondary
// index. All entry deletions go through here.
func (n *Node) dropEntry(e *interestEntry) {
	delete(n.entries, e.hash)
	n.midx.entries.Remove(e.slot)
}

// collect drops e if nothing holds it: no gradient and no local sink. With
// custody on such an entry stays as a cached interest: a mobile custodian
// (the ferry) must still know *what* is wanted to re-offer the interest
// and route its custodial data at the next contact. The cache is bounded
// by the number of distinct interests, not by traffic.
func (n *Node) collect(e *interestEntry) {
	if !e.hasGradient() && len(e.sinks) == 0 && !n.custodyOn() {
		n.dropEntry(e)
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
