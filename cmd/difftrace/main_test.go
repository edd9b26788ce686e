package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"diffusion"
	"diffusion/internal/experiments"
	"diffusion/internal/telemetry"
)

var update = flag.Bool("update", false, "regenerate testdata golden fixtures")

const (
	goldenPath      = "testdata/golden.jsonl"
	goldenSpansPath = "testdata/golden_spans.jsonl"
)

// generateGolden produces the fixture trace: a four-node line with a
// surveillance-style flow and a scripted mid-run link blackout, exported
// as JSONL. The simulation is deterministic, so this byte stream is stable
// across runs and machines.
func generateGolden(t *testing.T) []byte {
	t.Helper()
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     7,
		Topology: diffusion.LineTopology(4, 10),
	})
	tr := net.NewTrace(0)
	if err := net.ScheduleFaults("link 2<->3 down at 1m30s", "link 2<->3 up at 2m30s"); err != nil {
		t.Fatal(err)
	}

	sink := net.Node(1)
	sink.Subscribe(diffusion.Attributes{
		diffusion.String(diffusion.KeyType, diffusion.EQ, "temperature"),
	}, func(m *diffusion.Message) {})
	source := net.Node(4)
	pub := source.Publish(diffusion.Attributes{
		diffusion.String(diffusion.KeyType, diffusion.IS, "temperature"),
	})
	seq := int32(0)
	net.Every(10*time.Second, func() {
		seq++
		source.Send(pub, diffusion.Attributes{
			diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
		})
	})
	net.Run(4 * time.Minute)

	var buf bytes.Buffer
	if err := tr.ExportJSONL(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenUpToDate regenerates the fixture in memory and requires the
// checked-in file to match byte for byte — both a staleness guard and a
// determinism check. Run with -update to rewrite it.
func TestGoldenUpToDate(t *testing.T) {
	got := generateGolden(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with go test ./cmd/difftrace -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden trace is stale: regenerated %d bytes differ from checked-in %d bytes; run go test ./cmd/difftrace -run Golden -update", len(got), len(want))
	}
}

// generateGoldenSpans produces the flight-path fixture: the same
// four-node line, traced with 100% sampling so every origination carries
// a flow ID and the exported trace includes the span records.
func generateGoldenSpans(t *testing.T) []byte {
	t.Helper()
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:          7,
		Topology:      diffusion.LineTopology(4, 10),
		TraceSampling: 1.0,
	})
	tr := net.NewTrace(0)
	sink := net.Node(1)
	sink.Subscribe(diffusion.Attributes{
		diffusion.String(diffusion.KeyType, diffusion.EQ, "temperature"),
	}, func(m *diffusion.Message) {})
	source := net.Node(4)
	pub := source.Publish(diffusion.Attributes{
		diffusion.String(diffusion.KeyType, diffusion.IS, "temperature"),
	})
	seq := int32(0)
	net.Every(10*time.Second, func() {
		seq++
		source.Send(pub, diffusion.Attributes{
			diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
		})
	})
	net.Run(3 * time.Minute)

	var buf bytes.Buffer
	if err := tr.ExportJSONL(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenSpansUpToDate is the staleness/determinism guard for the
// flight-path fixture. Run with -update to rewrite it.
func TestGoldenSpansUpToDate(t *testing.T) {
	got := generateGoldenSpans(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenSpansPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSpansPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenSpansPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenSpansPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with go test ./cmd/difftrace -run Golden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden spans trace is stale: regenerated %d bytes differ from checked-in %d bytes; run go test ./cmd/difftrace -run Golden -update", len(got), len(want))
	}
}

func TestPathsOnGoldenSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"paths", goldenSpansPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"flight paths:", "delivered", "n4", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("paths output missing %q:\n%s", want, out)
		}
	}

	// Single-flow timeline: pick a delivered flow out of the trace.
	_, recs, err := load(goldenSpansPath)
	if err != nil {
		t.Fatal(err)
	}
	var flowID uint16
	for _, r := range recs {
		if r.Flow != 0 && r.Verb == "deliver" {
			flowID = r.Flow
			break
		}
	}
	if flowID == 0 {
		t.Fatal("no delivered flow in golden spans trace")
	}
	buf.Reset()
	if err := run(&buf, []string{"paths", "-flow", fmt.Sprintf("%04x", flowID), goldenSpansPath}); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{"deliver", "recv", "delivered at node"} {
		if !strings.Contains(out, want) {
			t.Errorf("flow timeline missing %q:\n%s", want, out)
		}
	}
}

// TestPathsOnSpansEndpoint: a body saved from a live diffnode's GET /spans
// (node 2, the sink of a two-node loopback pair) is a trace as it stands.
func TestPathsOnSpansEndpoint(t *testing.T) {
	const saved = "testdata/spans_endpoint.jsonl"
	info, _, err := load(saved)
	if err != nil {
		t.Fatal(err)
	}
	if info.Node != 2 || info.Boot == 0 || info.StartUnixUS == 0 {
		t.Errorf("run info lost the node's identity: %+v", info)
	}
	var buf bytes.Buffer
	if err := run(&buf, []string{"paths", saved}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"flight paths:", "EXPLORATORY_DATA", "delivered at node 2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("paths output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestLatencyOnGoldenSpans(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"latency", goldenSpansPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"latency over", "per-hop", "end-to-end", "p50=", "p99="} {
		if !strings.Contains(out, want) {
			t.Errorf("latency output missing %q:\n%s", want, out)
		}
	}
}

// TestPathsOnUntracedGolden: the span-free fixture must degrade politely.
func TestPathsOnUntracedGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"paths", goldenPath}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no flight-path spans") {
		t.Errorf("paths on untraced trace:\n%s", buf.String())
	}
}

func TestInfoOnGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"info", goldenPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"seed=7", "nodes=4", "fault script:", "link 2<->3 down at 1m30s", "records:"} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}
}

func TestBudgetOnGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"budget", goldenPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"message budget", "INTEREST", "DATA", "control (interest+reinforcement)"} {
		if !strings.Contains(out, want) {
			t.Errorf("budget output missing %q:\n%s", want, out)
		}
	}
}

func TestFlowsOnGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"flows", "-top", "3", goldenPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "data originations") || !strings.Contains(out, "slowest 3 flows:") {
		t.Errorf("flows output:\n%s", out)
	}

	// Pick a real flow ID out of the trace and ask for its hop-by-hop view.
	_, recs, err := load(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	id := ""
	for _, r := range recs {
		if r.Class == "DATA" || r.Class == "EXPLORATORY_DATA" {
			id = r.ID
			break
		}
	}
	if id == "" {
		t.Fatal("no data record in golden trace")
	}
	buf.Reset()
	if err := run(&buf, []string{"flows", "-id", id, goldenPath}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "flow "+id) || !strings.Contains(buf.String(), "node=") {
		t.Errorf("flow detail output:\n%s", buf.String())
	}
}

func TestGradientsOnGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"gradients", "-node", "2", goldenPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "gradient timeline for node 2") || !strings.Contains(out, "gradient -> ") {
		t.Errorf("gradients output:\n%s", out)
	}
	// The 2<->3 blackout involves node 2, so it must appear in the timeline.
	if !strings.Contains(out, "fault link-down") {
		t.Errorf("gradients output missing the node's fault events:\n%s", out)
	}
	// The sink's own interests make no gradient toward itself.
	buf.Reset()
	if err := run(&buf, []string{"gradients", "-node", "1", goldenPath}); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); strings.Contains(out, "gradient -> 1 ") || !strings.Contains(out, "gradient -> 2 ") {
		t.Errorf("sink's gradients output:\n%s", out)
	}
}

func TestDiffIdenticalAndDivergent(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, []string{"diff", goldenPath, goldenPath}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traces are identical") {
		t.Errorf("self-diff output:\n%s", buf.String())
	}

	// Mutate one record and diff again: the tool must localize the change.
	info, recs, err := load(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	recs[len(recs)/2].Hops++
	mutated := filepath.Join(t.TempDir(), "mutated.jsonl")
	f, err := os.Create(mutated)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WriteJSONL(f, info, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	buf.Reset()
	if err := run(&buf, []string{"diff", goldenPath, mutated}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "first divergence at record") {
		t.Errorf("diff output:\n%s", buf.String())
	}
}

func TestChromeOnGolden(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run(&buf, []string{"chrome", "-o", out, goldenPath}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("chrome output has no trace events")
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus", goldenPath},
		{"info"},
		{"info", "no-such-file.jsonl"},
		{"diff", goldenPath},
	} {
		if err := run(&bytes.Buffer{}, args); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

// TestBudgetMatchesExperimentSummary is the end-to-end determinism check:
// a traced churn (relay-kill) run exported as JSONL and re-read by this
// tool must yield exactly the per-class counts the experiment's own trace
// reports. Any skew means export, parse, or the trace itself is lossy.
func TestBudgetMatchesExperimentSummary(t *testing.T) {
	cfg := experiments.DefaultChurn()
	cfg.Seeds = []int64{1}
	cfg.Duration = 10 * time.Minute
	cfg.KillAt = 5 * time.Minute
	_, tr, snap := experiments.RunRelayKillTraced(cfg, 1)

	var buf bytes.Buffer
	if err := tr.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	info, recs, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	counts := classCounts(recs)
	want := tr.CountByClass()
	total := 0
	for class, n := range want {
		if counts[class.String()] != n {
			t.Errorf("class %v: trace has %d, exported budget has %d", class, n, counts[class.String()])
		}
		total += n
	}
	if got := len(recs) - len(tr.Faults()); got != total {
		t.Errorf("exported %d message records, trace holds %d events", got, total)
	}
	// The header's fault script is the kill the trace recorded, line for
	// line.
	var kills []string
	for _, f := range tr.Faults() {
		if f.Kind == diffusion.FaultNodeDown {
			kills = append(kills, f.String())
		}
	}
	if len(kills) == 0 || !slices.Equal(info.FaultScript, kills) {
		t.Errorf("exported fault script %q, want the recorded node-down faults %q", info.FaultScript, kills)
	}
	if snap.Total("core.sent.data") == 0 {
		t.Error("metrics snapshot shows no reinforced data sent")
	}
}
