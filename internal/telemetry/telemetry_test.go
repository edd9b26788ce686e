package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"diffusion/internal/message"
)

// Add adds n: tests set a counter to a value in one call.
func (c *Counter) Add(n uint64) { c.v += n }

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(2.5)
	g.Set(2)
	if g.Value() != 2 {
		t.Errorf("gauge = %g, want 2", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 1000, 1 << 50} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d", h.Count())
	}
	if h.sum != 0+1+2+3+1000+1<<50 {
		t.Errorf("sum = %d", h.sum)
	}
	// Quantile returns a bucket upper bound covering the observation.
	if q := h.Quantile(0.5); q < 3 || q > 4 {
		t.Errorf("p50 = %d, want bucket top covering 3", q)
	}
	if q := h.Quantile(1); q != int64(1)<<(HistBuckets-1)-1 {
		t.Errorf("p100 = %d, want overflow bucket top", q)
	}
	if h.Quantile(0.01) != 0 {
		t.Errorf("p1 = %d, want 0 (zero bucket)", h.Quantile(0.01))
	}
}

func TestRegistrySnapshotAndCollectors(t *testing.T) {
	r := NewRegistry("node-1")
	r.Counter("a").Add(3)
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter must be create-or-get")
	}
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(100)
	external := 42
	r.AddCollector(func(emit func(string, float64)) { emit("ext", float64(external)) })
	snap := r.Snapshot()
	if snap["a"] != 3 || snap["g"] != 7 || snap["ext"] != 42 {
		t.Errorf("snapshot = %v", snap)
	}
	if snap["h.count"] != 1 || snap["h.mean"] != 100 {
		t.Errorf("histogram expansion = %v", snap)
	}
	external = 43
	if r.Snapshot()["ext"] != 43 {
		t.Error("collectors must read live values at snapshot time")
	}
}

func TestHubAggregates(t *testing.T) {
	now := 5 * time.Second
	h := NewHub(func() time.Duration { return now })
	a := h.Register(NewRegistry("node-1"))
	b := h.Register(NewRegistry("node-2"))
	a.Counter("sent").Add(2)
	b.Counter("sent").Add(3)
	s := h.Snapshot()
	if s.At != now {
		t.Errorf("At = %v", s.At)
	}
	if s.Total("sent") != 5 {
		t.Errorf("total = %g", s.Total("sent"))
	}
	if s.Scopes["node-2"]["sent"] != 3 {
		t.Errorf("scope = %v", s.Scopes["node-2"])
	}
	var buf bytes.Buffer
	s.Write(&buf)
	if !strings.Contains(buf.String(), "sent") || !strings.Contains(buf.String(), "2 scopes") {
		t.Errorf("snapshot render:\n%s", buf.String())
	}
}

// The acceptance criterion: metric hot paths add no allocations per
// message.
func TestHotPathAllocationFree(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(100, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f/op", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(100, func() { g.Set(1) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f/op", n)
	}
	var h Histogram
	if n := testing.AllocsPerRun(100, func() { h.Observe(12345) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op", n)
	}
}

func TestFlightRing(t *testing.T) {
	now := 5 * time.Second
	f := NewRing(4, clockAt(&now))
	for i := 1; i <= 5; i++ {
		f.Record(Event{Node: uint32(i), Peer: 9, ID: message.ID{RandID: 0xab, PktNum: uint32(i)},
			Verb: Recv, Class: message.Data, Hop: 2})
	}
	f.Record(Event{Node: 6, Peer: 2, Verb: Fault, Kind: 3})
	if n := len(f.Records()); n != 4 || f.Total() != 6 {
		t.Fatalf("len=%d total=%d", n, f.Total())
	}
	recs := f.Records()
	if recs[0].Node != 3 || recs[3].Node != 6 {
		t.Errorf("ring order = %v", recs)
	}
	var buf bytes.Buffer
	f.Dump(&buf, nil)
	for _, want := range []string{
		"4 records held, 6 total",
		"         5s node=3 recv DATA id=000000ab:3 peer=9 hops=2\n",
		"         5s node=6 fault kind=3 peer=2\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("dump missing %q:\n%s", want, buf.String())
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	info := RunInfo{
		Seed: 7, Topology: "testbed", Nodes: 14,
		InterestInterval: "1m0s", FaultScript: []string{"crash node 2 at 10m0s"},
		DroppedEvents: 3,
	}
	recs := []Record{
		{US: 1000, Node: 1, Layer: "core", Verb: "org", Class: "INTEREST", ID: "0000abcd:1"},
		{US: 2000, Node: 2, Layer: "core", Verb: "fwd", Class: "INTEREST", ID: "0000abcd:1", From: 1, Hops: 1},
		{US: 3000, Node: 2, Layer: "fault", Verb: "node-down"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, info, recs); err != nil {
		t.Fatal(err)
	}
	gotInfo, gotRecs, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotInfo.Seed != 7 || gotInfo.Topology != "testbed" || gotInfo.DroppedEvents != 3 ||
		len(gotInfo.FaultScript) != 1 {
		t.Errorf("info = %+v", gotInfo)
	}
	if len(gotRecs) != 3 || gotRecs[1] != recs[1] {
		t.Errorf("records = %+v", gotRecs)
	}
	if gotRecs[0].At() != time.Millisecond {
		t.Errorf("At = %v", gotRecs[0].At())
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("want error on garbage input")
	}
	if _, _, err := ReadJSONL(strings.NewReader(`{"some":"json"}` + "\n")); err == nil {
		t.Error("want error on non-trace json")
	}
}

func TestChromeTraceShape(t *testing.T) {
	recs := []Record{
		{US: 1000, Node: 1, Layer: "core", Verb: "org", Class: "DATA", ID: "x:1"},
		{US: 1500, Node: 2, Layer: "fault", Verb: "node-down"},
		// A dropped flight path says why it stopped.
		{US: 1700, Node: 3, Layer: "core", Verb: "drop", Class: "DATA", ID: "x:2", Flow: 0x2a, Cause: "no-path"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, RunInfo{Seed: 1}, recs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"thread_name"`, `"node 1"`, `"DATA"`, `"node-down"`, `"ph":"i"`,
		`"cause":"no-path"`, `"flow":42`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, out)
		}
	}
}
