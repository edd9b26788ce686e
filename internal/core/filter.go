package core

import (
	"cmp"
	"fmt"
	"slices"

	"diffusion/internal/attr"
	"diffusion/internal/match"
	"diffusion/internal/message"
)

// This file implements the paper's filter architecture (sections 3.3 and
// 4.1, Figure 5). Filters are the only extension point: application code
// registers an attribute pattern and a priority; every message traverses
// the matching filters in descending priority order before the diffusion
// core processes it. A filter that wants the message to continue calls
// SendMessageToNext; otherwise the message is consumed. Filters may also
// originate messages (InjectMessage) or bypass processing entirely
// (SendDirect), which is how in-network aggregation, nested queries and
// geographic scoping are built without touching the core.

// FilterCallback is invoked for each message matching the filter; h
// identifies the filter for SendMessageToNext. msg and its Attrs are borrowed
// until the callback returns and must not be written: the callback may pass
// msg on within the call, and clones what it keeps or rewrites, because msg
// is often the receive message, which the next reception overwrites.
type FilterCallback func(msg *message.Message, h FilterHandle)

type filter struct {
	handle   FilterHandle
	attrs    attr.Vec
	priority int16
	cb       FilterCallback
	// pos is the filter's current position in the priority-sorted chain,
	// maintained on every install/remove.
	pos int
	// slot is the filter's handle in the chain match index.
	slot match.Handle
}

// AddFilter installs a filter triggered by messages whose attributes
// two-way match attrs. priority must be positive; higher priorities run
// earlier. Registration order breaks ties.
func (n *Node) AddFilter(attrs attr.Vec, priority int16, cb FilterCallback) FilterHandle {
	if priority <= 0 {
		panic(fmt.Sprintf("core: filter priority must be positive, got %d", priority))
	}
	if cb == nil {
		panic("core: filter callback must not be nil")
	}
	n.nextFil++
	f := &filter{handle: n.nextFil, attrs: attrs.Clone(), priority: priority, cb: cb}
	n.filters = append(n.filters, f)
	// Keep the chain sorted: higher priority first, then insertion order.
	slices.SortStableFunc(n.filters, func(a, b *filter) int { return cmp.Compare(b.priority, a.priority) })
	n.renumberFilters()
	put(&n.filtersByHandle, f.handle, f)
	f.slot = n.midx.filters.Add(f.attrs, uint64(f.handle))
	return f.handle
}

// RemoveFilter uninstalls a filter.
func (n *Node) RemoveFilter(h FilterHandle) error {
	f, ok := n.filtersByHandle[h]
	if !ok {
		return fmt.Errorf("%w: filter %d", ErrUnknownHandle, h)
	}
	n.filters = append(n.filters[:f.pos], n.filters[f.pos+1:]...)
	n.renumberFilters()
	delete(n.filtersByHandle, h)
	n.midx.filters.Remove(f.slot)
	return nil
}

// renumberFilters refreshes every filter's chain position after an
// install or removal reshuffles the slice.
func (n *Node) renumberFilters() {
	for i, f := range n.filters {
		f.pos = i
	}
}

// runChainFrom delivers m to the first matching filter at chain position
// start or later, or to the core when none matches.
//
// Filter matching is one-way: every formal in the filter's attributes must
// be satisfied by an actual in the message (attr.OneWayMatch). A filter
// registered with no attributes therefore sees every message, one with
// "class EQ interest" sees interests only, and one with a task formal sees
// data carrying that task actual. (Subscription delivery, by contrast, uses
// the full two-way match of section 3.2.)
func (n *Node) runChainFrom(m *message.Message, start int) {
	if start < len(n.filters) {
		// One-way index lookup yields every matching filter; the earliest
		// chain position at or past start is exactly the filter the old
		// in-order scan would have stopped at.
		tags := n.midx.getTags()
		tags = n.midx.filters.Lookup(m.Attrs, tags)
		var best *filter
		for _, t := range tags {
			f := n.filtersByHandle[FilterHandle(t)]
			if f != nil && f.pos >= start && (best == nil || f.pos < best.pos) {
				best = f
			}
		}
		n.midx.putTags(tags)
		if best != nil {
			n.Stats.FilterInvocations++
			best.cb(m, best.handle)
			return
		}
	}
	n.processCore(m)
}

// SendMessageToNext passes m to the next matching filter after the given
// filter in the chain (or to the core). It is the paper's
// sendMessageToNext: filters that only observe or rewrite call it to keep
// the message moving.
func (n *Node) SendMessageToNext(m *message.Message, h FilterHandle) {
	if f, ok := n.filtersByHandle[h]; ok {
		n.runChainFrom(m, f.pos+1)
		return
	}
	// Unknown handle (filter was removed mid-flight): fall through to the
	// core rather than dropping the message.
	n.processCore(m)
}

// InjectMessage introduces a (typically filter-originated) message into
// the node as if it had just arrived: it traverses the full filter chain
// and then the core. A zero ID is assigned; PrevHop is forced to this
// node. This is the paper's sendMessage used to originate new messages
// from in-network processing code.
func (n *Node) InjectMessage(m *message.Message) {
	out := m.Clone()
	if out.ID == (message.ID{}) {
		out.ID = n.nextID()
	}
	out.PrevHop = selfID(n)
	n.dispatch(out)
}

// Filters returns the number of installed filters (diagnostics).
func (n *Node) Filters() int { return len(n.filters) }

// ProcessNoForward runs the diffusion core on m (gradient setup, local
// delivery, reinforcement handling) but suppresses any re-flooding, so a
// filter can take over the forwarding decision — the mechanism behind
// geographic interest scoping ("we are currently exploring using filters
// to optimize diffusion (avoiding flooding) with geographic information",
// section 4.2).
func (n *Node) ProcessNoForward(m *message.Message) {
	n.suppressForward = true
	defer func() { n.suppressForward = false }()
	n.processCore(m)
}
