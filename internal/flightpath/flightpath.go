// Package flightpath reconstructs causal flight paths from flight-path
// span records: the per-layer events (recv, match, enqueue, tx, deliver,
// drop, custody-accept, custody-replay) that every node records for
// sampled messages. The same analysis runs over a simulator trace
// (cmd/difftrace) and over span records scraped from a live cluster
// (cmd/diffscope) — both speak telemetry.Record, with timestamps already
// on one common base (virtual time in the simulator; collector-rebased
// absolute time live) — and both render a flow's timeline and the latency
// percentiles with the writers here.
package flightpath

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"diffusion/internal/telemetry"
)

// Flow is the reconstructed story of one sampled origination: the hops
// its primary message took, whether and where it was delivered, where it
// died if it was not, and the reinforcement traffic it triggered.
type Flow struct {
	// Flow is the 16-bit trace-context flow ID.
	Flow uint16
	// ID is the primary message's origination ID ("%08x:%d").
	ID string
	// Class is the primary message's class at origination.
	Class string
	// Origin is the originating node (the first event's node).
	Origin uint32
	// StartUS and EndUS bound the flow's observed activity.
	StartUS, EndUS int64
	// Hops is the hop-by-hop relay chain, ordered by hop counter.
	Hops []Hop
	// Delivered reports a local delivery at a sink; DeliverNode and
	// DeliverUS locate the first one.
	Delivered   bool
	DeliverNode uint32
	DeliverUS   int64
	// Dropped reports a terminal drop: the flow's last primary-message
	// event is a drop. DropNode, DropHop and DropCause localize it.
	Dropped   bool
	DropNode  uint32
	DropHop   uint8
	DropCause string
	// CustodyNodes lists nodes that took custody of the message (sorted);
	// a dropped flow with no custodian died for good.
	CustodyNodes []uint32
	// Reinforcements is the time-ordered reinforcement traffic sharing
	// this flow (positive and negative), as recorded at the core layer.
	Reinforcements []Edge
	// Events is every span record of the flow, time-ordered.
	Events []telemetry.Record
}

// Hop is one hop-counter value of a flow's primary message: the node that
// transmitted at that hop count and the first node that received it.
// A flood can have several receivers per hop; RxNode is the earliest.
type Hop struct {
	Hop uint8
	// TxNode transmitted the message carrying this hop count; TxUS is the
	// tx event time (MAC or transport layer), -1 when only enqueued or
	// unobserved.
	TxNode uint32
	TxUS   int64
	// RxNode is the first node that recorded a recv at this hop count;
	// RxUS its time. -1 when the hop was transmitted but never received
	// (the loss hop).
	RxNode uint32
	RxUS   int64
}

// LatencyUS returns the hop's tx-to-recv latency, or -1 when either end
// is unobserved.
func (h Hop) LatencyUS() int64 {
	if h.TxUS < 0 || h.RxUS < 0 {
		return -1
	}
	return h.RxUS - h.TxUS
}

// Edge is one reinforcement sighting: a node handling a (positive or
// negative) reinforcement message of the flow.
type Edge struct {
	US   int64
	Node uint32
	// Verb is the span verb at the sighting (recv, enqueue, tx, ...).
	Verb     string
	Negative bool
}

// E2EUS returns origin-to-delivery latency, or -1 when undelivered or
// unbounded.
func (f *Flow) E2EUS() int64 {
	if !f.Delivered || f.DeliverUS < f.StartUS {
		return -1
	}
	return f.DeliverUS - f.StartUS
}

// reinforcement classes as rendered by message.Class.String.
const (
	classPosReinf = "POSITIVE_REINFORCEMENT"
	classNegReinf = "NEGATIVE_REINFORCEMENT"
)

// Assemble groups span records (Flow != 0) into flows, ordered by first
// appearance. Non-span records pass through untouched by simply being
// ignored, so a full difftrace JSONL export can be fed directly.
func Assemble(recs []telemetry.Record) []*Flow {
	byFlow := map[uint16]*Flow{}
	var order []uint16
	for _, r := range recs {
		if r.Flow == 0 {
			continue
		}
		f, ok := byFlow[r.Flow]
		if !ok {
			f = &Flow{Flow: r.Flow, StartUS: r.US, Origin: r.Node}
			byFlow[r.Flow] = f
			order = append(order, r.Flow)
		}
		f.Events = append(f.Events, r)
		if r.US > f.EndUS {
			f.EndUS = r.US
		}
	}
	flows := make([]*Flow, 0, len(order))
	for _, id := range order {
		f := byFlow[id]
		sort.SliceStable(f.Events, func(i, j int) bool { return f.Events[i].US < f.Events[j].US })
		f.StartUS = f.Events[0].US
		f.Origin = f.Events[0].Node
		analyze(f)
		flows = append(flows, f)
	}
	return flows
}

// analyze fills a flow's derived fields from its sorted events.
func analyze(f *Flow) {
	hops := map[uint8]*Hop{}
	var hopOrder []uint8
	hop := func(h uint8) *Hop {
		p, ok := hops[h]
		if !ok {
			p = &Hop{Hop: h, TxUS: -1, RxUS: -1}
			hops[h] = p
			hopOrder = append(hopOrder, h)
		}
		return p
	}
	custody := map[uint32]bool{}
	var lastPrimary *telemetry.Record
	for i := range f.Events {
		r := &f.Events[i]
		reinf := r.Class == classPosReinf || r.Class == classNegReinf
		if reinf {
			f.Reinforcements = append(f.Reinforcements, Edge{
				US: r.US, Node: r.Node, Verb: r.Verb, Negative: r.Class == classNegReinf,
			})
			continue
		}
		if f.Class == "" && r.Class != "" {
			f.Class = r.Class
		}
		if f.ID == "" && r.ID != "" {
			f.ID = r.ID
		}
		lastPrimary = r
		h := uint8(r.Hops)
		switch r.Verb {
		case "tx":
			p := hop(h)
			if p.TxUS < 0 || r.US < p.TxUS {
				p.TxNode, p.TxUS = r.Node, r.US
			}
		case "recv":
			p := hop(h)
			if p.RxUS < 0 || r.US < p.RxUS {
				p.RxNode, p.RxUS = r.Node, r.US
			}
		case "deliver":
			if !f.Delivered {
				f.Delivered = true
				f.DeliverNode = r.Node
				f.DeliverUS = r.US
			}
		case "custody-accept":
			custody[r.Node] = true
		}
	}
	sort.Slice(hopOrder, func(i, j int) bool { return hopOrder[i] < hopOrder[j] })
	for _, h := range hopOrder {
		f.Hops = append(f.Hops, *hops[h])
	}
	for n := range custody {
		f.CustodyNodes = append(f.CustodyNodes, n)
	}
	sort.Slice(f.CustodyNodes, func(i, j int) bool { return f.CustodyNodes[i] < f.CustodyNodes[j] })
	// A flow whose primary story ends in a drop — and was never locally
	// delivered — died at that hop.
	if !f.Delivered && lastPrimary != nil && lastPrimary.Verb == "drop" {
		f.Dropped = true
		f.DropNode = lastPrimary.Node
		f.DropHop = uint8(lastPrimary.Hops)
		f.DropCause = lastPrimary.Cause
	}
}

// Localize renders a one-line drop (or delivery) verdict for a flow —
// the "flow 7 died at node 4: link-refused, custody not enabled" line.
func Localize(f *Flow) string {
	switch {
	case f.Delivered:
		return fmt.Sprintf("flow %04x delivered at node %d (+%dus)", f.Flow, f.DeliverNode, f.E2EUS())
	case f.Dropped && len(f.CustodyNodes) > 0:
		return fmt.Sprintf("flow %04x died at node %d (hop %d): %s; in custody at node %d",
			f.Flow, f.DropNode, f.DropHop, f.DropCause, f.CustodyNodes[len(f.CustodyNodes)-1])
	case f.Dropped:
		return fmt.Sprintf("flow %04x died at node %d (hop %d): %s, custody not enabled",
			f.Flow, f.DropNode, f.DropHop, f.DropCause)
	case len(f.CustodyNodes) > 0:
		return fmt.Sprintf("flow %04x in custody at node %d, awaiting a path",
			f.Flow, f.CustodyNodes[len(f.CustodyNodes)-1])
	default:
		return fmt.Sprintf("flow %04x in flight (last seen node %d)", f.Flow, lastNode(f))
	}
}

// lastNode returns the node of the flow's final event.
func lastNode(f *Flow) uint32 {
	if len(f.Events) == 0 {
		return f.Origin
	}
	return f.Events[len(f.Events)-1].Node
}

// PerHopLatencies collects every observed tx-to-recv hop latency (µs)
// across the given flows.
func PerHopLatencies(flows []*Flow) []int64 {
	var out []int64
	for _, f := range flows {
		for _, h := range f.Hops {
			if l := h.LatencyUS(); l >= 0 {
				out = append(out, l)
			}
		}
	}
	return out
}

// E2ELatencies collects every delivered flow's end-to-end latency (µs).
func E2ELatencies(flows []*Flow) []int64 {
	var out []int64
	for _, f := range flows {
		if l := f.E2EUS(); l >= 0 {
			out = append(out, l)
		}
	}
	return out
}

// Percentile returns the p-th percentile (0..100, nearest-rank) of the
// samples, or -1 for an empty set. The input is not modified.
func Percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return -1
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := int(p/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// PathString renders the relay chain as "n1 -> n2 -> n3", using each
// hop's receiving node (the origin leads). Missing receivers render "?".
func PathString(f *Flow) string {
	out := fmt.Sprintf("n%d", f.Origin)
	for _, h := range f.Hops {
		if h.RxUS >= 0 {
			out += fmt.Sprintf(" -> n%d", h.RxNode)
		} else if h.TxUS >= 0 {
			out += " -> ?"
		}
	}
	return out
}

// ParseFlowID parses a 16-bit flow ID in the hex spelling the reports use
// ("0f5a", optionally 0x-prefixed); empty means no flow selected.
func ParseFlowID(s string) (uint16, error) {
	if s == "" {
		return 0, nil
	}
	s = strings.TrimPrefix(s, "0x")
	v, err := strconv.ParseUint(s, 16, 16)
	if err != nil || v == 0 {
		return 0, fmt.Errorf("bad flow ID %q: want the 4-digit hex ID from the listing", s)
	}
	return uint16(v), nil
}

// WriteLatencies writes the per-hop and end-to-end latency percentiles
// over the flows, one line each.
func WriteLatencies(w io.Writer, flows []*Flow) {
	line := func(name string, samples []int64) {
		if len(samples) == 0 {
			fmt.Fprintf(w, "  %-10s (no samples)\n", name)
			return
		}
		fmt.Fprintf(w, "  %-10s n=%-6d p50=%-10v p90=%-10v p99=%-10v max=%v\n", name, len(samples),
			time.Duration(Percentile(samples, 50))*time.Microsecond,
			time.Duration(Percentile(samples, 90))*time.Microsecond,
			time.Duration(Percentile(samples, 99))*time.Microsecond,
			time.Duration(Percentile(samples, 100))*time.Microsecond)
	}
	line("per-hop", PerHopLatencies(flows))
	line("end-to-end", E2ELatencies(flows))
}

// WriteTimeline writes one flow's cross-node event sequence: a header
// with its relay chain, rendered by path, then every event relative to
// the flow's start, then its verdict.
func WriteTimeline(w io.Writer, flows []*Flow, flowID uint16, path func(*Flow) string) error {
	for _, f := range flows {
		if f.Flow != flowID {
			continue
		}
		fmt.Fprintf(w, "flow %04x %s id=%s %s\n", f.Flow, f.Class, f.ID, path(f))
		for _, r := range f.Events {
			fmt.Fprintf(w, "  +%-12v node=%-4d %-9s %-9s hops=%d",
				time.Duration(r.US-f.StartUS)*time.Microsecond, r.Node, r.Layer, r.Verb, r.Hops)
			if r.Cause != "" {
				fmt.Fprintf(w, " cause=%s", r.Cause)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "  %s\n", Localize(f))
		return nil
	}
	return fmt.Errorf("no spans for flow %04x", flowID)
}
