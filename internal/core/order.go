package core

import (
	"cmp"
	"slices"
)

// Determinism-ordering utilities. Every snapshot of a Go map the core
// iterates with externally visible effects (transmissions, callback
// invocations, stats in a fixed order) funnels through these, so the
// canonical orders live in one place:
//
//   - interest entries: ascending attribute hash,
//   - subscriptions/filters: ascending handle (tag),
//   - neighbor IDs: ascending numeric ID.
//
// They used to be four hand-rolled insertion sorts (entriesInOrder,
// subsInOrder, matchingEntries, sortNodeIDs); a broker-scale node can see
// thousands of matches per message, so the shared implementation is the
// standard-library pattern-defeating quicksort, which allocates nothing.

// sortAscending orders any snapshot of ordered elements — message IDs,
// handles-as-tags, neighbor IDs.
func sortAscending[T cmp.Ordered](s []T) {
	slices.Sort(s)
}

// sortEntriesByHash orders interest entries by their canonical hash.
func sortEntriesByHash(s []*interestEntry) {
	slices.SortFunc(s, func(a, b *interestEntry) int {
		return cmp.Compare(a.hash, b.hash)
	})
}

// sortSubsByHandle orders subscriptions by handle.
func sortSubsByHandle(s []*subscription) {
	slices.SortFunc(s, func(a, b *subscription) int {
		return cmp.Compare(a.h, b.h)
	})
}

// entriesInOrder returns a fresh snapshot of every interest entry in
// canonical hash order (control-plane paths: neighbor recovery re-offers).
func (n *Node) entriesInOrder() []*interestEntry {
	out := make([]*interestEntry, 0, len(n.entries))
	for _, e := range n.entries {
		out = append(out, e)
	}
	sortEntriesByHash(out)
	return out
}
