package main

// The benchmark's contract, mirrored in BENCHMARK.json at the repository
// root; diffbench_test.go asserts the two agree so they cannot drift.

// workloadSpec names one workload and records why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec names one metric. Bound is the share of the baseline median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is BENCHMARK.json: what a driver runs and which metrics it may
// expect. diffbench -contract prints it from the tables below.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func theContract() contract {
	return contract{
		Command:    []string{"go", "run", "./cmd/diffbench"},
		Paths:      []string{"cmd/diffbench"},
		RunSeconds: 16,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

const (
	wLine5UDP      = "line5_udp"
	wLine5Reliable = "line5_reliable_1k"
	wBrokerMesh    = "broker_mesh"
	wGrid1024      = "grid1024_sim"
	wTestbedFig8   = "testbed_fig8"
)

var workloads = []workloadSpec{
	{wLine5UDP, "5-hop UDP line on loopback, 32 B payload: the smallest message, so per-datagram cost (socket, frame codec, loop hand-off, decode/clone/encode) dominates and matching does nothing"},
	{wLine5Reliable, "same line with reliable unicast and a 1 KiB payload: acks, retransmit timers, duplicate windows and per-byte cost; a fast path bought at the reliable path's expense shows here"},
	{wBrokerMesh, "publisher->relay->broker on the in-process mesh, broker holds 100k local subscriptions: match index, local delivery and heap size do the work, sockets do none; set-up is 100k index inserts"},
	{wGrid1024, "1024-node simulated grid, 5 sources, 4 corner sinks, full radio/MAC/core stack: the simulator user's number; kernel, radio and MAC do the work, transport and rt do none"},
	{wTestbedFig8, "the paper's Fig. 8 point (14-node testbed, 4 sources, suppression filters) over many seeds: the only workload through internal/filters, and the short many-seed runs researchers do"},
}

// End-to-end metrics, reported by every workload with -trace 0. The two
// simulated workloads report latency in simulated microseconds, the clock
// their user lives on. A metric has one bound for all workloads, about
// three times the widest interquartile spread ten seeds showed on any of
// them (README.md has the table), capped at the 0.25 a driver accepts.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"allocs_per_event", "count", "lower", 0.06},
	{"wire_bytes_per_event", "bytes", "lower", 0.05},
	{"heap_live_mb", "MiB", "lower", 0.12},
}

// Per-layer metrics, reported by every workload with -trace 1. A metric
// that does not apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{"transport.send_us", "us", "lower", 0},
	{"transport.wire_us", "us", "lower", 0},
	{"transport.datagrams_per_event", "count", "lower", 0},
	{"transport.bytes_per_event", "bytes", "lower", 0},
	{"transport.acks_per_event", "count", "lower", 0},
	{"transport.retransmits", "count", "lower", 0},
	{"transport.recv_dropped", "count", "lower", 0},
	{"transport.queue_drops", "count", "lower", 0},
	{"transport.send_errors", "count", "lower", 0},
	{"rt.queue_wait_p50_us", "us", "lower", 0},
	{"rt.queue_wait_p99_us", "us", "lower", 0},
	{"rt.busiest_wait_p50_us", "us", "lower", 0},
	{"rt.busiest_node", "id", "lower", 0},
	{"core.send_us", "us", "lower", 0},
	{"core.receive_us", "us", "lower", 0},
	{"core.deliver_us", "us", "lower", 0},
	{"core.duplicates_per_event", "count", "lower", 0},
	{"core.data_no_path", "count", "lower", 0},
	{"core.neg_reinforcements", "count", "lower", 0},
	{"core.ctrl_bytes_share", "ratio", "lower", 0},
	{"core.delivered_share", "ratio", "higher", 0},
	{"core.subscribe_us", "us", "lower", 0},
	{"core.deliveries_per_event", "count", "lower", 0},
	{"message.marshal_ns", "ns", "lower", 0},
	{"message.unmarshal_ns", "ns", "lower", 0},
	{"message.clone_ns", "ns", "lower", 0},
	{"message.marshal_allocs", "count", "lower", 0},
	{"message.unmarshal_allocs", "count", "lower", 0},
	{"message.clone_allocs", "count", "lower", 0},
	{"attr.match_ns", "ns", "lower", 0},
	{"match.lookup_ns", "ns", "lower", 0},
	{"match.add_ns", "ns", "lower", 0},
	{"match.remove_ns", "ns", "lower", 0},
	{"match.candidates_per_lookup", "count", "lower", 0},
	{"match.heap_bytes_per_sub", "bytes", "lower", 0},
	{"sim.sim_s_per_wall_s", "ratio", "higher", 0},
	{"sim.kernel_event_ns", "ns", "lower", 0},
	{"sim.wall_ns_per_frame", "ns", "lower", 0},
	{"sim.shards4_speedup", "ratio", "higher", 0},
	{"radio.collided_share", "ratio", "lower", 0},
	{"radio.lost_share", "ratio", "lower", 0},
	{"mac.fragments_per_event", "count", "lower", 0},
	{"mac.backoff_share", "ratio", "lower", 0},
	{"mac.dropped_share", "ratio", "lower", 0},
	{"filters.suppressed_share", "ratio", "higher", 0},
	{"filters.invocations_per_event", "count", "lower", 0},
	{"filters.savings_share", "ratio", "higher", 0},
	{"telemetry.trace_tax", "ratio", "lower", 0},
	{"custody.accept_ns", "ns", "lower", 0},
	{"custody.release_ns", "ns", "lower", 0},
	{"custody.store_append_us", "us", "lower", 0},
	{"bench.trace_overhead", "ratio", "higher", 0},
	{"bench.trace_coverage", "ratio", "higher", 0},
	{"bench.latency_p95_us", "us", "lower", 0},
	{"bench.latency_p99_us", "us", "lower", 0},
	{"bench.latency_p999_us", "us", "lower", 0},
}

func workloadNamed(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
