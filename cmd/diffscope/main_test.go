package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diffusion/internal/telemetry"
)

// spanServer serves a canned diffnode /spans response: a JSONL trace whose
// run info names the node, with record us relative to startUnixUS.
func spanServer(t *testing.T, node, boot uint32, startUnixUS int64, recs []telemetry.Record) *httptest.Server {
	t.Helper()
	var b bytes.Buffer
	info := telemetry.RunInfo{Topology: "diffnode", Nodes: 1, Node: node, Boot: boot, StartUnixUS: startUnixUS}
	if err := telemetry.WriteJSONL(&b, info, recs); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/spans" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		w.Write(b.Bytes())
	}))
	t.Cleanup(srv.Close)
	return srv
}

// clusterServers models a 3-node chain 3 -> 2 -> 1 that delivers flow
// 0x0007 and drops flow 0x0009 at node 2 for lack of a gradient. Each
// node's clock has a different wall base to exercise rebasing.
func clusterServers(t *testing.T) []string {
	t.Helper()
	const cls = "EXPLORATORY_DATA"
	n3 := spanServer(t, 3, 0xaa, 1_000_000, []telemetry.Record{
		{US: 100, Node: 3, Layer: "core", Verb: "enqueue", Class: cls, Hops: 0, Flow: 7},
		{US: 150, Node: 3, Layer: "mac", Verb: "tx", Class: cls, Hops: 1, Flow: 7},
		{US: 500, Node: 3, Layer: "core", Verb: "enqueue", Class: cls, Hops: 0, Flow: 9},
		{US: 550, Node: 3, Layer: "mac", Verb: "tx", Class: cls, Hops: 1, Flow: 9},
	})
	n2 := spanServer(t, 2, 0xbb, 1_000_200, []telemetry.Record{
		{US: 150, Node: 2, Layer: "mac", Verb: "recv", Class: cls, Hops: 1, Flow: 7},
		{US: 160, Node: 2, Layer: "core", Verb: "match", Class: cls, Hops: 1, Flow: 7},
		{US: 200, Node: 2, Layer: "mac", Verb: "tx", Class: cls, Hops: 2, Flow: 7},
		{US: 600, Node: 2, Layer: "mac", Verb: "recv", Class: cls, Hops: 1, Flow: 9},
		{US: 640, Node: 2, Layer: "core", Verb: "drop", Class: cls, Hops: 1, Flow: 9, Cause: "no-gradient"},
	})
	n1 := spanServer(t, 1, 0xcc, 1_000_500, []telemetry.Record{
		{US: 80, Node: 1, Layer: "mac", Verb: "recv", Class: cls, Hops: 2, Flow: 7},
		{US: 95, Node: 1, Layer: "core", Verb: "deliver", Class: cls, Hops: 2, Flow: 7},
	})
	return []string{
		strings.TrimPrefix(n3.URL, "http://"),
		strings.TrimPrefix(n2.URL, "http://"),
		strings.TrimPrefix(n1.URL, "http://"),
	}
}

func TestScrapeMergeReport(t *testing.T) {
	addrs := clusterServers(t)
	var buf bytes.Buffer
	if err := run(&buf, addrs); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"diffscope: 3 nodes, 11 spans, 2 flows",
		"boot 000000aa",
		"flight paths (1 delivered, 1 dropped):",
		"0007",
		// Wall-rebased hop latencies: recv@2 (base 1_000_200 + 150) minus
		// tx@3 (base 1_000_000 + 150) = 200µs; recv@1 minus tx@2 = 180µs.
		"n3 -(200µs)-> n2 -(180µs)-> n1",
		"delivered at node 1",
		"died at node 2 (hop 1): no-gradient",
		"custody not enabled",
		"end-to-end",
		"undelivered flows:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFlowTimeline(t *testing.T) {
	addrs := clusterServers(t)
	var buf bytes.Buffer
	if err := run(&buf, append([]string{"-flow", "0007"}, addrs...)); err != nil {
		t.Fatalf("run -flow: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"flow 0007", "enqueue", "recv", "deliver", "delivered at node 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := run(&buf, append([]string{"-flow", "00ff"}, addrs...)); err == nil ||
		!strings.Contains(err.Error(), "no spans for flow 00ff") {
		t.Errorf("unknown flow: got err %v", err)
	}
}

func TestMergedTraceOutput(t *testing.T) {
	addrs := clusterServers(t)
	path := filepath.Join(t.TempDir(), "merged.jsonl")
	var buf bytes.Buffer
	if err := run(&buf, append([]string{"-o", path}, addrs...)); err != nil {
		t.Fatalf("run -o: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	info, recs, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if info.Topology != "live-scrape" || info.Nodes != 3 {
		t.Errorf("run info = %+v", info)
	}
	if len(recs) != 11 {
		t.Fatalf("got %d merged records, want 11", len(recs))
	}
	// Rebased: the earliest span across the cluster is time zero, and
	// records are time-ordered.
	if recs[0].US != 0 {
		t.Errorf("first record US = %d, want 0", recs[0].US)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].US < recs[i-1].US {
			t.Errorf("records out of order at %d: %d < %d", i, recs[i].US, recs[i-1].US)
		}
	}
}

func TestScrapeErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("no args: got err %v", err)
	}

	// A node without tracing enabled answers 404; diffscope should surface
	// the body text so the operator knows which knob to turn.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "flight-path tracing is not enabled (set trace_sample > 0)", http.StatusNotFound)
	}))
	t.Cleanup(srv.Close)
	buf.Reset()
	err := run(&buf, []string{strings.TrimPrefix(srv.URL, "http://")})
	if err == nil || !strings.Contains(err.Error(), "tracing is not enabled") {
		t.Errorf("404 scrape: got err %v", err)
	}
}

func TestEmptyRing(t *testing.T) {
	srv := spanServer(t, 4, 0xdd, 42, nil)
	var buf bytes.Buffer
	if err := run(&buf, []string{strings.TrimPrefix(srv.URL, "http://")}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "no flight-path spans scraped") {
		t.Errorf("missing empty-ring hint:\n%s", buf.String())
	}
}
