package diffusion

import (
	"sort"

	"diffusion/internal/telemetry"
)

// Telemetry types, re-exported from the telemetry layer. The network
// wires a MetricsRegistry per node (plus one named "channel" for the
// shared medium); see Metrics and MetricsSnapshot. A simulated node keeps
// no flight recorder: a run is a pure function of its seed, so the moments
// before a failure are re-read by running the seed again under a Trace.
type (
	// MetricsRegistry is one scope's named counters, gauges and histograms.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time view of every metric, per scope
	// and summed network-wide.
	MetricsSnapshot = telemetry.Snapshot
	// Event is one observed fact at one node: a message received, sent,
	// processed or traced through a layer, or a fault.
	Event = telemetry.Event
	// EventRing is a bounded per-node ring of Events: a node's span ring
	// of sampled messages (see Spans).
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
	return net.must(id, "node", nil).reg
}

// MetricsSnapshot reads every layer's counters across every node — radio,
// MAC, diffusion core, energy — keyed on the simulation clock. Equal
// seeds produce identical snapshots at identical times.
func (net *Network) MetricsSnapshot() MetricsSnapshot { return net.hub.Snapshot() }

// Spans returns the node's flight-path span ring, or nil when
// NetworkConfig.TraceSampling is zero (or for mote IDs — motes are not
// traced).
func (net *Network) Spans(id uint32) *EventRing {
	if p := net.part(id); p != nil {
		return p.spans
	}
	return nil
}

// SpanRecords converts every node's recorded spans into structured trace
// records, merged across nodes into one deterministic timeline: ordered
// by timestamp, ties broken by topology order (each node's ring is
// already in its own event order). Empty when tracing is off.
func (net *Network) SpanRecords() []TraceRecord {
	var out []TraceRecord
	for _, p := range net.parts {
		if p.spans == nil {
			continue
		}
		for _, e := range p.spans.Records() {
			out = append(out, e.Record())
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].US < out[j].US })
	return out
}

// RunInfo describes this network's configuration as a trace header:
// seed, topology and the protocol rates with defaults applied — enough to
// rebuild the network and replay the run.
func (net *Network) RunInfo() TraceRunInfo {
	info := TraceRunInfo{Seed: net.cfg.Seed, Topology: net.cfg.Topology.Name, Nodes: len(net.parts)}
	if len(net.parts) == 0 {
		return info
	}
	return net.parts[0].node.Node.RunInfo(info)
}
