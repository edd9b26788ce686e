package diffusion

import (
	"fmt"
	"io"
	"sort"
	"time"

	"diffusion/internal/message"
	"diffusion/internal/telemetry"
)

// Trace is the network-wide analysis tool the paper asks for (section 7:
// "we were repeatedly challenged by the difficulty in understanding what
// was going on in a network of dozens of physically distributed nodes ...
// tools are needed to ... permit more flexible logging"). It installs a
// pass-through tap on every node and records every message each node
// processes — an Org or Fwd Event — with summaries by class, node, and
// flow direction. Because the simulation is deterministic, a trace is a
// complete, replayable account of a run.
type Trace struct {
	net *Network
	// Recording is per node: each node's filter appends to its own buffer
	// on its own clock. Events reads the buffers merged into one canonical
	// timeline.
	bufs   map[uint32]*nodeTraceBuf
	merged []Event // cached merge; rebuilt when stale
	faults []FaultEvent
	// limit bounds message events, divided evenly across the nodes, so a
	// chatty node loses the end of its own view and nobody else's; faults
	// are far rarer and get their own bound so a chatty run cannot starve
	// the fault record (or vice versa).
	limit      int
	faultLimit int
	// droppedFaults counts fault events lost to the fault bound; message
	// drops are counted per node. Dropping truncates each node's view of
	// the *end* of the run, so summaries must warn when non-zero.
	droppedFaults int
	header        TraceRunInfo
	faultScript   []string
}

// nodeTraceBuf is one node's recording buffer; only that node's event
// context touches it during a run.
type nodeTraceBuf struct {
	events  []Event
	limit   int
	dropped int
}

// defaultFaultLimit bounds recorded fault events; even brutal churn runs
// inject orders of magnitude fewer faults than messages.
const defaultFaultLimit = 100_000

// NewTrace installs the trace across every full-diffusion node. limit
// bounds message-event memory (0 means one million events); once reached,
// new events are dropped — truncating the end of the run — and counted in
// Dropped, which Summary warns about. Fault events have their own bound.
func (net *Network) NewTrace(limit int) *Trace {
	if limit <= 0 {
		limit = 1_000_000
	}
	t := &Trace{
		net:        net,
		bufs:       map[uint32]*nodeTraceBuf{},
		limit:      limit,
		faultLimit: defaultFaultLimit,
		header:     net.RunInfo(),
	}
	traced := 0
	for _, id := range net.IDs() {
		if _, ok := net.nodes[id]; ok {
			traced++ // mote tiers are not traced
		}
	}
	perNode, extra := limit, 0
	if traced > 0 {
		perNode = limit / traced
		// The first limit%traced nodes (topology order) take one more, so
		// the per-node bounds sum exactly to the requested limit.
		extra = limit % traced
		if perNode < 1 {
			perNode, extra = 1, 0
		}
	}
	for _, id := range net.IDs() {
		n, ok := net.nodes[id]
		if !ok {
			continue
		}
		id := id
		node := n
		buf := &nodeTraceBuf{limit: perNode}
		if extra > 0 {
			buf.limit++
			extra--
		}
		t.bufs[id] = buf
		clk := net.NodeEnv(id)
		node.AddFilter(nil, 30100, func(m *Message, h FilterHandle) {
			if len(buf.events) < buf.limit {
				verb := telemetry.Fwd
				if uint32(m.PrevHop) == id {
					verb = telemetry.Org
				}
				buf.events = append(buf.events, Event{
					At: clk.Now(), Node: id, Peer: uint32(m.PrevHop), ID: m.ID,
					Hop: m.HopCount, Verb: verb, Class: m.Class,
				})
			} else {
				buf.dropped++
			}
			node.SendMessageToNext(m, h)
		})
	}
	// Fault events (node-down/up, link-down/up) are part of the run's
	// story: record them so traces from churn runs are self-describing.
	net.OnFault(func(ev FaultEvent) {
		if len(t.faults) < t.faultLimit {
			t.faults = append(t.faults, ev)
		} else {
			t.droppedFaults++
		}
	})
	return t
}

// Events returns the recorded events merged across nodes into one
// canonical timeline — ordered by timestamp, ties broken by topology
// position (shared slice; do not mutate).
func (t *Trace) Events() []Event {
	total := 0
	for _, b := range t.bufs {
		total += len(b.events)
	}
	if len(t.merged) == total {
		return t.merged
	}
	merged := make([]Event, 0, total)
	for _, id := range t.net.IDs() {
		if b, ok := t.bufs[id]; ok {
			merged = append(merged, b.events...)
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
	for _, b := range t.bufs {
		n += b.dropped
	}
	return n
}

// DroppedFaults returns the number of fault events lost to the fault
// bound.
func (t *Trace) DroppedFaults() int { return t.droppedFaults }

// SetFaultLimit overrides the fault-event bound (non-positive restores the
// default). Fault events beyond it are dropped and counted in
// DroppedFaults.
func (t *Trace) SetFaultLimit(n int) {
	if n <= 0 {
		n = defaultFaultLimit
	}
	t.faultLimit = n
}

// SetFaultScript attaches a human-readable description of the run's
// scheduled fault scenario; it is exported in the trace header so faulted
// traces are self-describing.
func (t *Trace) SetFaultScript(lines []string) { t.faultScript = lines }

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

// nodeDowns counts node-down faults.
func (t *Trace) nodeDowns() int {
	n := 0
	for _, f := range t.faults {
		if f.Kind == FaultNodeDown {
			n++
		}
	}
	return n
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

// Originations returns the distinct message originations observed, per
// class.
func (t *Trace) Originations() map[MessageClass]int {
	seen := map[message.ID]bool{}
	out := map[MessageClass]int{}
	for _, e := range t.Events() {
		if e.Verb == telemetry.Org && !seen[e.ID] {
			seen[e.ID] = true
			out[e.Class]++
		}
	}
	return out
}

// FirstDelivery returns when a given message origination was first
// processed at the given node, or ok=false (per-message latency probing).
func (t *Trace) FirstDelivery(id message.ID, node uint32) (time.Duration, bool) {
	for _, e := range t.Events() {
		if e.ID == id && e.Node == node {
			return e.At, true
		}
	}
	return 0, false
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
		counts := map[FaultKind]int{}
		for _, f := range t.faults {
			counts[f.Kind]++
		}
		fmt.Fprintf(w, "faults: %d node-down, %d node-up, %d link-down, %d link-up; repairs: %d/%d\n",
			counts[FaultNodeDown], counts[FaultNodeUp],
			counts[FaultLinkDown], counts[FaultLinkUp],
			t.Repairs(), t.nodeDowns())
	}
	if t.Dropped() > 0 || t.droppedFaults > 0 {
		fmt.Fprintf(w, "WARNING: %d events and %d faults dropped at the trace limit; the end of the run is missing\n",
			t.Dropped(), t.droppedFaults)
	}
}

// WriteLog streams every event as one line, for offline analysis. Fault
// events interleave with message events in time order, so an outage reads
// in place in the log.
func (t *Trace) WriteLog(w io.Writer) {
	fi := 0
	emitFaultsThrough := func(at time.Duration) {
		for fi < len(t.faults) && t.faults[fi].At <= at {
			f := t.faults[fi]
			if f.Kind == FaultLinkDown || f.Kind == FaultLinkUp {
				fmt.Fprintf(w, "%12v fault %v %d<->%d\n", f.At, f.Kind, f.Node, f.Peer)
			} else {
				fmt.Fprintf(w, "%12v fault %v node=%d\n", f.At, f.Kind, f.Node)
			}
			fi++
		}
	}
	for _, e := range t.Events() {
		emitFaultsThrough(e.At)
		fmt.Fprintf(w, "%12v node=%d %s %s id=%v hops=%d\n",
			e.At, e.Node, e.Verb, e.Class, e.ID, e.Hop)
	}
	emitFaultsThrough(time.Duration(1<<62 - 1))
}

func (t *Trace) span() time.Duration {
	ev := t.Events()
	if len(ev) == 0 {
		return 0
	}
	return ev[len(ev)-1].At - ev[0].At
}

// Header returns the trace's self-describing run header: the network
// configuration captured at NewTrace, the fault script (SetFaultScript),
// and drop accounting.
func (t *Trace) Header() TraceRunInfo {
	h := t.header
	h.FaultScript = t.faultScript
	h.DroppedEvents = t.Dropped()
	h.DroppedFaults = t.droppedFaults
	return h
}

// Records converts the trace into structured records: message events
// (layer "core", verb "org"/"fwd"), fault events (layer "fault", the kind
// as verb), and — when NetworkConfig.TraceSampling is on — flight-path
// spans (non-zero flow field, layers core/mac/custody), merged in time
// order.
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
		out = append(out, spans...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].US < out[j].US })
	}
	return out
}

// ExportJSONL writes the trace — header line plus one record per line —
// for cmd/difftrace and offline tooling.
func (t *Trace) ExportJSONL(w io.Writer) error {
	return telemetry.WriteJSONL(w, t.Header(), t.Records())
}
