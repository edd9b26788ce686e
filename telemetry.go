package diffusion

import (
	"fmt"
	"io"
	"sort"

	"diffusion/internal/telemetry"
)

// Telemetry types, re-exported from the telemetry layer. The network
// wires a MetricsRegistry per node (plus one named "channel" for the
// shared medium) and an always-on FlightRecorder per full-diffusion node;
// see Metrics, MetricsSnapshot and FlightRecorder.
type (
	// MetricsRegistry is one scope's named counters, gauges and histograms.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time view of every metric, per scope
	// and summed network-wide.
	MetricsSnapshot = telemetry.Snapshot
	// Event is one observed fact at one node: a message received, sent,
	// processed or traced through a layer, or a fault.
	Event = telemetry.Event
	// EventRing is a bounded per-node ring of Events: a node's always-on
	// flight recorder, and its span ring of sampled messages.
	EventRing = telemetry.Ring
	// TraceRecord is one structured (JSONL/Chrome-exportable) trace record.
	TraceRecord = telemetry.Record
	// TraceRunInfo is the self-describing header of an exported trace.
	TraceRunInfo = telemetry.RunInfo
)

// Metrics returns the metrics registry of the node (or mote) with the
// given topology ID; application code and filters register their own
// counters here. It panics on unknown IDs (a configuration error).
func (net *Network) Metrics(id uint32) *MetricsRegistry {
	r, ok := net.regs[id]
	if !ok {
		panic(fmt.Sprintf("diffusion: no node %d in topology %q", id, net.cfg.Topology.Name))
	}
	return r
}

// MetricsSnapshot reads every layer's counters across every node — radio,
// MAC, diffusion core, energy — keyed on the simulation clock. Equal
// seeds produce identical snapshots at identical times.
func (net *Network) MetricsSnapshot() MetricsSnapshot { return net.hub.Snapshot() }

// FlightRecorder returns the node's flight-recorder ring. It panics on
// unknown or mote IDs (motes are not flight-recorded).
func (net *Network) FlightRecorder(id uint32) *EventRing {
	f, ok := net.flights[id]
	if !ok {
		panic(fmt.Sprintf("diffusion: no flight recorder for node %d in topology %q", id, net.cfg.Topology.Name))
	}
	return f
}

// Spans returns the node's flight-path span ring, or nil when
// NetworkConfig.TraceSampling is zero (or for mote IDs — motes are not
// traced).
func (net *Network) Spans(id uint32) *EventRing { return net.spans[id] }

// SpanRecords converts every node's recorded spans into structured trace
// records, merged across nodes into one deterministic timeline: ordered
// by timestamp, ties broken by topology order (each node's ring is
// already in its own event order). Empty when tracing is off.
func (net *Network) SpanRecords() []TraceRecord {
	var out []TraceRecord
	for _, id := range net.order {
		ring, ok := net.spans[id]
		if !ok {
			continue
		}
		for _, e := range ring.Records() {
			out = append(out, e.Record())
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].US < out[j].US })
	return out
}

// SetFlightDump directs an automatic flight-recorder dump of the affected
// node(s) to w on every subsequent fault event. nil disables dumping (the
// rings keep recording either way).
func (net *Network) SetFlightDump(w io.Writer) { net.flightSink = w }

// DumpFlightRecorders writes every node's flight-recorder ring to w, in
// topology order — call it from a failing test to make the run
// self-diagnosing.
func (net *Network) DumpFlightRecorders(w io.Writer) {
	for _, id := range net.order {
		if f, ok := net.flights[id]; ok {
			fmt.Fprintf(w, "--- node %d ---\n", id)
			f.Dump(w, faultKindName)
		}
	}
}

// faultKindName renders a fault Event's kind.
func faultKindName(k uint8) string { return FaultKind(k).String() }

// recordFaultFlight stamps ev into the affected nodes' flight recorders
// (whose clocks read ev.At) and, when a dump sink is set, dumps those
// rings.
func (net *Network) recordFaultFlight(ev FaultEvent) {
	affected := make([]uint32, 0, 2)
	stamp := func(id, peer uint32) {
		f, ok := net.flights[id]
		if !ok {
			return
		}
		f.Record(telemetry.Event{Node: id, Peer: peer, Verb: telemetry.Fault, Kind: uint8(ev.Kind)})
		affected = append(affected, id)
	}
	switch ev.Kind {
	case FaultLinkDown, FaultLinkUp:
		stamp(ev.Node, ev.Peer)
		stamp(ev.Peer, ev.Node)
	default:
		stamp(ev.Node, 0)
	}
	if net.flightSink == nil {
		return
	}
	fmt.Fprintf(net.flightSink, "flight dump on fault: %v\n", ev)
	for _, id := range affected {
		fmt.Fprintf(net.flightSink, "--- node %d ---\n", id)
		net.flights[id].Dump(net.flightSink, faultKindName)
	}
}

// RunInfo describes this network's configuration as a trace header:
// seed, topology and the protocol rates with defaults applied — enough to
// rebuild the network and replay the run.
func (net *Network) RunInfo() TraceRunInfo {
	info := TraceRunInfo{Seed: net.cfg.Seed, Topology: net.cfg.Topology.Name, Nodes: len(net.order)}
	if len(net.order) == 0 {
		return info
	}
	return net.nodes[net.order[0]].Node.RunInfo(info)
}
