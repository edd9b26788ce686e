// Package flightpath reconstructs causal flight paths from flight-path
// span records: the per-layer events (recv, match, enqueue, tx, deliver,
// drop, custody-accept, custody-replay) that every node records for
// sampled messages. cmd/difftrace runs it over a simulator trace and over
// spans scraped from live nodes alike, since both are telemetry.Records
// on one time base, and prints its reports with the writers here.
package flightpath

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"diffusion/internal/message"
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

// Hop is one link of a flow's relay chain: a recv at RxNode from TxNode,
// paired with TxNode's tx at the same hop count toward RxNode or toward
// broadcast. Only such pairs are hops, so a chain never joins two nodes
// that did not hand each other the message.
type Hop struct {
	Hop uint8
	// TxNode transmitted the message carrying this hop count; TxUS is its
	// first such tx (MAC or transport layer).
	TxNode uint32
	TxUS   int64
	// RxNode received it from TxNode, at RxUS; -1 when no node recorded
	// receiving that tx (the loss hop).
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

// analyze fills a flow's derived fields from its sorted events. A node is
// reached by its first paired reception from the origin or from a node
// already reached: that is the copy a relay forwards. The chain follows
// those links back from the delivering node, or, undelivered, from the
// first node reached at the highest hop count, and ends in a loss hop when
// nobody recorded receiving what that node transmitted.
func analyze(f *Flow) {
	txs := map[uint32][]*telemetry.Record{} // each node's primary txs, in time order
	heard := map[uint32]bool{}              // nodes some node recorded receiving from
	first := map[uint32]Hop{}               // how each reached node was reached
	end := f.Origin
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
		switch r.Verb {
		case "tx":
			txs[r.Node] = append(txs[r.Node], r)
		case "recv":
			i := slices.IndexFunc(txs[r.Peer], func(tx *telemetry.Record) bool {
				return tx.Hops == r.Hops && (tx.Peer == r.Node || tx.Peer == uint32(message.Broadcast) || tx.Peer == 0)
			})
			if i < 0 {
				break
			}
			heard[r.Peer] = true
			_, reached := first[r.Peer]
			if _, ok := first[r.Node]; ok || r.Node == f.Origin || !reached && r.Peer != f.Origin {
				break
			}
			tx := txs[r.Peer][i]
			first[r.Node] = Hop{Hop: uint8(r.Hops), TxNode: tx.Node, TxUS: tx.US, RxNode: r.Node, RxUS: r.US}
			if end == f.Origin || first[r.Node].Hop > first[end].Hop {
				end = r.Node
			}
		case "deliver":
			if !f.Delivered {
				f.Delivered = true
				f.DeliverNode = r.Node
				f.DeliverUS = r.US
			}
		case "custody-accept":
			if !slices.Contains(f.CustodyNodes, r.Node) {
				f.CustodyNodes = append(f.CustodyNodes, r.Node)
			}
		}
	}
	if _, ok := first[f.DeliverNode]; f.Delivered && ok {
		end = f.DeliverNode
	}
	for h, ok := first[end]; ok; h, ok = first[h.TxNode] {
		f.Hops = append([]Hop{h}, f.Hops...)
	}
	if tx := txs[end]; !f.Delivered && !heard[end] && len(tx) > 0 {
		f.Hops = append(f.Hops, Hop{Hop: uint8(tx[0].Hops), TxNode: end, TxUS: tx[0].US, RxUS: -1})
	}
	slices.Sort(f.CustodyNodes)
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
		return fmt.Sprintf("flow %04x in flight (last seen node %d)", f.Flow, f.Events[len(f.Events)-1].Node)
	}
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
	s := slices.Clone(samples)
	slices.Sort(s)
	return s[min(max(int(p/100*float64(len(s))+0.5)-1, 0), len(s)-1)]
}

// PathString renders the relay chain as "n1 -(50µs)-> n2 -> n3", using
// each hop's receiving node (the origin leads) and its latency when both
// ends were observed. Missing receivers render "?".
func PathString(f *Flow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d", f.Origin)
	for _, h := range f.Hops {
		switch {
		case h.LatencyUS() >= 0:
			fmt.Fprintf(&b, " -(%v)-> n%d", time.Duration(h.LatencyUS())*time.Microsecond, h.RxNode)
		case h.RxUS >= 0:
			fmt.Fprintf(&b, " -> n%d", h.RxNode)
		case h.TxUS >= 0:
			b.WriteString(" -> ?")
		}
	}
	return b.String()
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

// WritePaths writes the flight-path report: every flow's relay chain and
// verdict, the reinforcement-path evolution (every reinforcement sighting
// of every flow in time order: the gradient field being sharpened and
// pruned), and the undelivered flows' verdicts gathered at the end.
func WritePaths(w io.Writer, flows []*Flow) {
	type sighting struct {
		flow uint16
		e    Edge
	}
	var evo []sighting
	delivered, dropped := 0, 0
	for _, f := range flows {
		if f.Delivered {
			delivered++
		} else if f.Dropped {
			dropped++
		}
		for _, e := range f.Reinforcements {
			evo = append(evo, sighting{f.Flow, e})
		}
	}
	fmt.Fprintf(w, "flight paths: %d sampled flows (%d delivered, %d dropped)\n", len(flows), delivered, dropped)
	for _, f := range flows {
		fmt.Fprintf(w, "  %04x %-18s %s\n       %s\n", f.Flow, f.Class, PathString(f), Localize(f))
	}
	sort.SliceStable(evo, func(i, j int) bool { return evo[i].e.US < evo[j].e.US })
	if len(evo) > 0 {
		fmt.Fprintln(w, "reinforcement-path evolution:")
	}
	for _, s := range evo {
		sign := "positive"
		if s.e.Negative {
			sign = "negative"
		}
		fmt.Fprintf(w, "  +%-12v flow %04x %s %s at node %d\n",
			time.Duration(s.e.US)*time.Microsecond, s.flow, sign, s.e.Verb, s.e.Node)
	}
	if delivered < len(flows) {
		fmt.Fprintln(w, "undelivered flows:")
	}
	for _, f := range flows {
		if !f.Delivered {
			fmt.Fprintf(w, "  %s\n", Localize(f))
		}
	}
}

// WriteTimeline writes one flow's cross-node event sequence: a header
// with its relay chain, then every event relative to the flow's start,
// then its verdict.
func WriteTimeline(w io.Writer, flows []*Flow, flowID uint16) error {
	for _, f := range flows {
		if f.Flow != flowID {
			continue
		}
		fmt.Fprintf(w, "flow %04x %s id=%s %s\n", f.Flow, f.Class, f.ID, PathString(f))
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
