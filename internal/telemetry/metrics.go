// Package telemetry is the measurement substrate of the simulator: the
// paper's section 7 asks for tools that "permit more flexible logging"
// and help understand "what was going on in a network of dozens of
// physically distributed nodes". Three pieces provide that:
//
//   - A metrics registry (this file): named counters, gauges and
//     log-bucketed histograms per scope (typically one scope per node),
//     aggregated network-wide by a Hub into point-in-time Snapshots keyed
//     on the deterministic simulation clock. Hot paths pay a single field
//     increment and never allocate; everything string-keyed happens at
//     snapshot time only.
//   - A structured trace record schema with JSONL and Chrome trace_event
//     exporters (record.go), consumed by cmd/difftrace.
//   - A per-node event ring (event.go): the live daemon's fixed-size
//     always-on flight recorder of recent protocol activity, dumped when
//     something goes wrong, a node's span ring, and a Trace's record.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready;
// incrementing is one integer add, so hot paths can hold a *Counter and
// bump it per message without allocating.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a point-in-time value (queue depth, rate, joules).
type Gauge struct{ v float64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// HistBuckets is the fixed bucket count of every Histogram. Bucket 0
// holds observations <= 0 and bucket i holds 2^(i-1) <= v < 2^i, so the
// buckets cover [1, 2^39) — microsecond-scale observations up to ~6 days
// — at power-of-two resolution with no per-histogram configuration.
const HistBuckets = 40

// Histogram accumulates int64 observations into fixed log2-scale buckets.
// Observe is allocation-free: bucket index is one bits.Len64 plus three
// adds.
type Histogram struct {
	buckets [HistBuckets]uint64
	count   uint64
	sum     int64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound on the q-quantile at bucket resolution
// (the top of the bucket containing it). q outside (0,1] is clamped.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			if i == 0 {
				return 0
			}
			return int64(1)<<uint(i) - 1
		}
	}
	return int64(1)<<(HistBuckets-1) - 1
}

// Collector publishes externally maintained counters (a layer's existing
// Stats struct) into snapshots without any hot-path cost: the layer keeps
// incrementing its plain struct fields as before, and emit is called once
// per metric at snapshot time only.
type Collector func(emit func(name string, v float64))

// Registry is one scope's named metrics — the simulator creates one per
// node plus one for the shared channel. Metric creation is
// create-or-get by name; hot paths resolve their metrics once at wiring
// time and then increment through the returned pointers. Names are
// reported in deterministic (sorted) order regardless of creation order.
type Registry struct {
	name       string
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []Collector
}

// NewRegistry returns an empty registry for the named scope. Its maps are
// made on first use, as most scopes hold collectors only, and it has room
// for a simulated node's four (core, MAC, radio, energy).
func NewRegistry(name string) *Registry {
	return &Registry{name: name, collectors: make([]Collector, 0, 4)}
}

// Name returns the scope name.
func (r *Registry) Name() string { return r.name }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	return getOrMake(&r.counters, name)
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return getOrMake(&r.gauges, name)
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	return getOrMake(&r.hists, name)
}

// getOrMake returns (*m)[name], making it, and the map, if needed.
func getOrMake[T any](m *map[string]*T, name string) *T {
	v, ok := (*m)[name]
	if !ok {
		if *m == nil {
			*m = map[string]*T{}
		}
		v = new(T)
		(*m)[name] = v
	}
	return v
}

// AddCollector registers a snapshot-time metrics source.
func (r *Registry) AddCollector(c Collector) { r.collectors = append(r.collectors, c) }

// Snapshot reads every metric into a name→value map. Histograms expand
// into .count, .mean and .p99 entries.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+3*len(r.hists))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = float64(h.Count())
		out[name+".mean"] = h.Mean()
		out[name+".p99"] = float64(h.Quantile(0.99))
	}
	for _, col := range r.collectors {
		col(func(name string, v float64) { out[name] = v })
	}
	return out
}

// Hub aggregates registries network-wide. Snapshots are stamped with the
// simulation clock, so two runs with equal seeds produce identical
// snapshot sequences.
type Hub struct {
	clock func() time.Duration
	regs  []*Registry
}

// NewHub returns a hub stamping snapshots via clock (nil leaves At zero).
func NewHub(clock func() time.Duration) *Hub { return &Hub{clock: clock} }

// Register adds a registry to the hub and returns it (for chaining).
func (h *Hub) Register(r *Registry) *Registry {
	h.regs = append(h.regs, r)
	return r
}

// Snapshot reads every registered scope and sums shared metric names into
// network-wide totals.
func (h *Hub) Snapshot() Snapshot {
	s := Snapshot{
		Scopes: make(map[string]map[string]float64, len(h.regs)),
		Totals: map[string]float64{},
	}
	if h.clock != nil {
		s.At = h.clock()
	}
	for _, r := range h.regs {
		m := r.Snapshot()
		s.Scopes[r.Name()] = m
		// Sum in sorted name order: float addition is not associative, so
		// map-iteration order would make totals differ across runs.
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s.Totals[name] += m[name]
		}
	}
	return s
}

// Snapshot is one point-in-time view of every metric in the network: the
// per-scope maps plus cross-scope sums. Mean-like histogram entries sum
// too; read those per scope.
type Snapshot struct {
	At     time.Duration
	Scopes map[string]map[string]float64
	Totals map[string]float64
}

// Total returns the network-wide sum for a metric name (0 if absent).
func (s Snapshot) Total(name string) float64 { return s.Totals[name] }

// Write renders the totals as a sorted table — the at-a-glance health
// view of a run.
func (s Snapshot) Write(w io.Writer) {
	fmt.Fprintf(w, "metrics @ %v (%d scopes):\n", s.At, len(s.Scopes))
	names := make([]string, 0, len(s.Totals))
	for name := range s.Totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %g\n", name, s.Totals[name])
	}
}
