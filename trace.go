package diffusion

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"diffusion/internal/fault"
	"diffusion/internal/message"
	"diffusion/internal/telemetry"
)

// Trace is the network-wide analysis tool the paper asks for (section 7:
// "we were repeatedly challenged by the difficulty in understanding what
// was going on in a network of dozens of physically distributed nodes ...
// tools are needed to ... permit more flexible logging"). It keeps, for the
// whole run, every node's originations and receptions — an Org or Fwd
// Event — with summaries by class, node, and flow direction. It watches
// without touching the run: a traced run is the untraced run, so a trace is
// a complete, replayable account of it.
type Trace struct {
	net *Network
	// rings are the flight rings the trace gave the full nodes, in topology
	// order, each keeping its node's share of the event bound. Events
	// reads them merged into one canonical timeline.
	rings  []*telemetry.Ring
	merged []Event // cached merge; rebuilt when stale
	faults []FaultEvent
	// faultLimit bounds fault events apart from message events, so a
	// chatty run cannot starve the fault record (or vice versa).
	faultLimit int
	// droppedFaults counts fault events lost to the fault bound; message
	// drops are counted per ring. Dropping truncates each node's view of
	// the *end* of the run, so summaries must warn when non-zero.
	droppedFaults int
	header        TraceRunInfo
}

// defaultFaultLimit bounds recorded fault events; even brutal churn runs
// inject orders of magnitude fewer faults than messages.
const defaultFaultLimit = 100_000

// traced is what a trace keeps of a node's flight ring: originations, and
// receptions other than custody acks, which never enter the filter chain.
func traced(e telemetry.Event) bool {
	return e.Verb == telemetry.Org || e.Verb == telemetry.Recv && e.Class != message.CustodyAck
}

// NewTrace gives every full-diffusion node a flight ring that keeps its
// originations and receptions from now on (a network records into its
// newest trace: a second NewTrace starts afresh, and the first records no
// more messages or faults). limit bounds message events (0 means one
// million), divided across the nodes so that a chatty node loses the end
// of its own view and nobody else's; past it, events are dropped and
// counted in Dropped, which Summary warns about. Fault events have their
// own bound.
func (net *Network) NewTrace(limit int) *Trace {
	if limit <= 0 {
		limit = 1_000_000
	}
	t := &Trace{
		net:        net,
		faultLimit: defaultFaultLimit,
		header:     net.RunInfo(),
	}
	// Mote tiers are not traced. A trace reads its rings only through Keep,
	// so their overwrite window is one event.
	now := net.eng.Now
	for i := range net.parts {
		if p := &net.parts[i]; p.full() {
			r := telemetry.NewRing(1, now)
			p.node.SetFlight(r)
			t.rings = append(t.rings, r)
		}
	}
	// The first limit%len nodes (topology order) take one more, so the
	// per-node bounds sum exactly to the requested limit.
	for i, r := range t.rings {
		n := limit / len(t.rings)
		if i < limit%len(t.rings) {
			n++
		}
		r.Keep(n, traced)
	}
	net.trace = t
	return t
}

// recordFault keeps a fault event (node-down/up, link-down/up), within the
// fault bound: faults are part of the run's story.
func (t *Trace) recordFault(ev FaultEvent) {
	if len(t.faults) < t.faultLimit {
		t.faults = append(t.faults, ev)
	} else {
		t.droppedFaults++
	}
}

// Events returns the recorded events merged across nodes into one
// canonical timeline — ordered by timestamp, ties broken by topology
// position (shared slice; do not mutate). A reception reads as Fwd, and
// no event carries its flow: spans are the flow's record.
func (t *Trace) Events() []Event {
	total := 0
	for _, r := range t.rings {
		kept, _ := r.Kept()
		total += len(kept)
	}
	if len(t.merged) == total {
		return t.merged
	}
	merged := make([]Event, 0, total)
	for _, r := range t.rings {
		kept, _ := r.Kept()
		for _, e := range kept {
			if e.Verb == telemetry.Recv {
				e.Verb = telemetry.Fwd
			}
			e.Flow = 0
			merged = append(merged, e)
		}
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].At < merged[j].At })
	t.merged = merged
	return t.merged
}

// Faults returns the fault events recorded during the run (shared slice;
// do not mutate).
func (t *Trace) Faults() []FaultEvent { return t.faults }

// Dropped returns the number of message events lost to the per-node trace
// limits. Non-zero means the tail of the run is missing from Events.
func (t *Trace) Dropped() int {
	n := 0
	for _, r := range t.rings {
		_, dropped := r.Kept()
		n += dropped
	}
	return n
}

// DroppedFaults returns the number of fault events lost to the fault
// bound.
func (t *Trace) DroppedFaults() int { return t.droppedFaults }

// Repairs counts the node-down faults after which positive-reinforcement
// traffic was observed again before the next node-down — the visible
// signature of the paper's repair machinery re-converging onto a working
// path after a failure.
func (t *Trace) Repairs() int {
	repairs := 0
	for i, f := range t.faults {
		if f.Kind != FaultNodeDown {
			continue
		}
		// The window closes at the next node-down (or the end of the run).
		end := time.Duration(1<<62 - 1)
		for _, g := range t.faults[i+1:] {
			if g.Kind == FaultNodeDown {
				end = g.At
				break
			}
		}
		for _, e := range t.Events() {
			if e.Class == ClassPositiveReinf && e.At > f.At && e.At <= end {
				repairs++
				break
			}
		}
	}
	return repairs
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.Events()) }

// CountByClass tallies processing events per message class.
func (t *Trace) CountByClass() map[MessageClass]int {
	out := map[MessageClass]int{}
	for _, e := range t.Events() {
		out[e.Class]++
	}
	return out
}

// CountByNode tallies processing events per node.
func (t *Trace) CountByNode() map[uint32]int {
	out := map[uint32]int{}
	for _, e := range t.Events() {
		out[e.Node]++
	}
	return out
}

// Summary writes a human-readable report: totals by class, then the
// busiest nodes — the at-a-glance view of "what was going on in the
// network".
func (t *Trace) Summary(w io.Writer) {
	fmt.Fprintf(w, "trace: %d events over %v\n", len(t.Events()), t.span())
	byClass := t.CountByClass()
	classes := make([]MessageClass, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		fmt.Fprintf(w, "  %-24s %6d\n", c, byClass[c])
	}
	type load struct {
		node  uint32
		count int
	}
	var loads []load
	for n, c := range t.CountByNode() {
		loads = append(loads, load{n, c})
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].count != loads[j].count {
			return loads[i].count > loads[j].count
		}
		return loads[i].node < loads[j].node
	})
	fmt.Fprintln(w, "busiest nodes:")
	for i, l := range loads {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, "  node %-4d %6d events\n", l.node, l.count)
	}
	if len(t.faults) > 0 {
		var counts fault.Summary
		for _, f := range t.faults {
			counts[f.Kind]++
		}
		fmt.Fprintf(w, "faults: %v; repairs: %d/%d\n", counts, t.Repairs(), counts[FaultNodeDown])
	}
	if t.Dropped() > 0 || t.droppedFaults > 0 {
		fmt.Fprintf(w, "WARNING: %d events and %d faults dropped at the trace limit; the end of the run is missing\n",
			t.Dropped(), t.droppedFaults)
	}
}

func (t *Trace) span() time.Duration {
	ev := t.Events()
	if len(ev) == 0 {
		return 0
	}
	return ev[len(ev)-1].At - ev[0].At
}

// Header returns the trace's self-describing run header: the network
// configuration captured at NewTrace, the network's fault script (the
// lines of Network.ScheduleFaults, whenever they were scheduled), and drop
// accounting.
func (t *Trace) Header() TraceRunInfo {
	h := t.header
	h.FaultScript = t.net.faultScript
	h.DroppedEvents = t.Dropped()
	h.DroppedFaults = t.droppedFaults
	return h
}

// Records converts the trace into structured records: message events
// (layer "core", verb "org"/"fwd"), fault events (layer "fault", the kind
// as verb), and — when NetworkConfig.TraceSampling is on — flight-path
// spans (non-zero flow field, layers core/mac/custody), merged in time
// order. An org span repeats an org event, so it is left out.
func (t *Trace) Records() []TraceRecord {
	events := t.Events()
	out := make([]TraceRecord, 0, len(events)+len(t.faults))
	fi := 0
	emitFaultsThrough := func(at time.Duration) {
		for fi < len(t.faults) && t.faults[fi].At <= at {
			f := t.faults[fi]
			out = append(out, TraceRecord{
				US: f.At.Microseconds(), Node: f.Node, Layer: "fault",
				Verb: f.Kind.String(), Peer: f.Peer,
			})
			fi++
		}
	}
	for _, e := range events {
		emitFaultsThrough(e.At)
		out = append(out, e.Record())
	}
	emitFaultsThrough(time.Duration(1<<62 - 1))
	if spans := t.net.SpanRecords(); len(spans) > 0 {
		out = append(out, slices.DeleteFunc(spans, func(r TraceRecord) bool { return r.Verb == "org" })...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].US < out[j].US })
	}
	return out
}

// ExportJSONL writes the trace — header line plus one record per line —
// for cmd/difftrace and offline tooling.
func (t *Trace) ExportJSONL(w io.Writer) error {
	return telemetry.WriteJSONL(w, t.Header(), t.Records())
}
