package core

import (
	"cmp"
	"slices"

	"diffusion/internal/message"
)

// Determinism-ordering utilities. Whatever the core walks with externally
// visible effects (transmissions, callback invocations, stats in a fixed
// order) it walks in a canonical order:
//
//   - interest entries: ascending attribute hash,
//   - subscriptions/filters: ascending handle (tag),
//   - neighbor IDs: ascending numeric ID. An entry keeps one record per
//     neighbor in that order (interestEntry.nbs), and neighbor sets
//     gathered across entries are built with insertNb, so no neighbor walk
//     snapshots a map or sorts.
//
// Snapshots of entries, subscriptions, tags and handles are sorted with
// the standard library's pattern-defeating quicksort, which allocates
// nothing: a broker-scale node can see thousands of matches per message.

// insertNb adds nb to the ascending set s and reports whether it was new.
func insertNb(s []message.NodeID, nb message.NodeID) ([]message.NodeID, bool) {
	i, found := slices.BinarySearch(s, nb)
	if found {
		return s, false
	}
	return slices.Insert(s, i, nb), true
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
	slices.SortFunc(out, func(a, b *interestEntry) int {
		return cmp.Compare(a.hash, b.hash)
	})
	return out
}
