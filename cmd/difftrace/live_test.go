package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/chaos"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/rt"
	"diffusion/internal/telemetry"
	"diffusion/internal/transport"
)

// load reads inputs as the subcommands do, without -walk.
func load(inputs ...string) (telemetry.RunInfo, []telemetry.Record, error) {
	t, err := readTrace(inputs, false)
	if err != nil {
		return telemetry.RunInfo{}, nil, err
	}
	return t.info, t.recs, nil
}

// runEach runs each subcommand over the same arguments and returns the
// outputs concatenated.
func runEach(t *testing.T, cmds []string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	for _, cmd := range cmds {
		if err := run(&buf, append([]string{cmd}, args...)); err != nil {
			t.Fatalf("%s: %v\n%s", cmd, err, buf.String())
		}
	}
	return buf.String()
}

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
		{US: 150, Node: 2, Layer: "mac", Verb: "recv", Class: cls, Peer: 3, Hops: 1, Flow: 7},
		{US: 160, Node: 2, Layer: "core", Verb: "match", Class: cls, Hops: 1, Flow: 7},
		{US: 200, Node: 2, Layer: "mac", Verb: "tx", Class: cls, Hops: 2, Flow: 7},
		{US: 600, Node: 2, Layer: "mac", Verb: "recv", Class: cls, Peer: 3, Hops: 1, Flow: 9},
		{US: 640, Node: 2, Layer: "core", Verb: "drop", Class: cls, Hops: 1, Flow: 9, Cause: "no-gradient"},
	})
	n1 := spanServer(t, 1, 0xcc, 1_000_500, []telemetry.Record{
		{US: 80, Node: 1, Layer: "mac", Verb: "recv", Class: cls, Peer: 2, Hops: 2, Flow: 7},
		{US: 95, Node: 1, Layer: "core", Verb: "deliver", Class: cls, Hops: 2, Flow: 7},
	})
	return []string{n3.URL, n2.URL, n1.URL}
}

func TestScrapeMergeReport(t *testing.T) {
	out := runEach(t, []string{"info", "paths", "latency"}, clusterServers(t)...)
	for _, want := range []string{
		"nodes=3",
		"records: 11",
		"2 sampled flows",
		"boot 000000aa",
		"(1 delivered, 1 dropped)",
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
	if err := run(&buf, append([]string{"paths", "-flow", "0007"}, addrs...)); err != nil {
		t.Fatalf("paths -flow: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"flow 0007", "enqueue", "recv", "deliver", "delivered at node 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := run(&buf, append([]string{"paths", "-flow", "00ff"}, addrs...)); err == nil ||
		!strings.Contains(err.Error(), "no spans for flow 00ff") {
		t.Errorf("unknown flow: got err %v", err)
	}
}

// TestMergedTraceOutput: several inputs merge onto one timeline.
func TestMergedTraceOutput(t *testing.T) {
	info, recs, err := load(clusterServers(t)...)
	if err != nil {
		t.Fatal(err)
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

	// A node without tracing enabled answers 404; difftrace should surface
	// the body text so the operator knows which knob to turn.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "flight-path tracing is not enabled (set trace_sample > 0)", http.StatusNotFound)
	}))
	t.Cleanup(srv.Close)
	buf.Reset()
	err := run(&buf, []string{"paths", srv.URL})
	if err == nil || !strings.Contains(err.Error(), "tracing is not enabled") {
		t.Errorf("404 scrape: got err %v", err)
	}
}

// TestOversizedBody: a body past maxBody is refused, and the error names
// the bound.
func TestOversizedBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte{'x'}, maxBody+1))
	}))
	t.Cleanup(srv.Close)
	err := run(&bytes.Buffer{}, []string{"paths", srv.URL})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxBody)) {
		t.Errorf("oversized body: got err %v", err)
	}
}

func TestEmptyRing(t *testing.T) {
	srv := spanServer(t, 4, 0xdd, 42, nil)
	var buf bytes.Buffer
	if err := run(&buf, []string{"paths", srv.URL}); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "no flight-path spans scraped") {
		t.Errorf("missing empty-ring hint:\n%s", buf.String())
	}
}

// servedSpans boots two traced live stacks on loopback, node 1 subscribing
// and node 2 publishing, sends from node 2, once it has heard node 1's
// interest, until node 1 has a delivery, and serves node 2's span ring as
// a diffnode serves GET /spans. The ring is read once, at the delivery:
// the stacks keep working, so every request gets that one body, and the
// commands and a test's own count read the same bytes.
func servedSpans(t *testing.T) string {
	t.Helper()
	ports, err := chaos.FreePorts("udp", 2)
	if err != nil {
		t.Fatal(err)
	}
	stacks := make([]*rt.Stack, 2)
	for i := range stacks {
		st, err := rt.NewStack(rt.StackConfig{
			Link: transport.UDPConfig{ID: uint32(i + 1), Listen: fmt.Sprintf("127.0.0.1:%d", ports[i]),
				Neighbors: map[uint32]string{uint32(2 - i): fmt.Sprintf("127.0.0.1:%d", ports[1-i])}},
			Node: core.Config{Rand: rand.New(rand.NewSource(int64(i))), TraceSample: 1,
				InterestInterval: 100 * time.Millisecond, ForwardJitter: time.Millisecond},
			Log: io.Discard,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		stacks[i] = st
	}
	sink, source := stacks[0], stacks[1]
	delivered := make(chan struct{}, 1)
	sink.Loop.Call(func() {
		sink.Node.Subscribe(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "served")}, func(*message.Message) {
			select {
			case delivered <- struct{}{}:
			default:
			}
		})
	})
	var pub core.PublicationHandle
	source.Loop.Call(func() { pub = source.Node.Publish(attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "served")}) })
	for deadline, heard := time.Now().Add(10*time.Second), false; ; {
		// The first Send explores, so it waits for the sink's interest.
		source.Loop.Call(func() {
			if heard = heard || source.Node.Stats.ReceivedByClass[message.Interest] > 0; heard {
				source.Node.Send(pub, nil)
			}
		})
		select {
		case <-delivered:
			var body bytes.Buffer
			if err := source.WriteSpans(&body, 0); err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Write(body.Bytes())
			}))
			t.Cleanup(srv.Close)
			return srv.URL
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no delivery at node 1 within 10s")
		}
	}
}

// gradients and budget work on a live node's served span body: its header
// carries the node's rates, an interest's arrival is its core-layer recv
// span, the source's own data is its core-layer org spans, and transport
// tx and recv spans are not processing events.
func TestGradientsAndBudgetOnServedSpans(t *testing.T) {
	addr := servedSpans(t)
	out := runEach(t, []string{"gradients"}, "-node", "2", addr)
	if !strings.Contains(out, "(lifetime 250ms)") || !strings.Contains(out, "gradient -> 1    created") {
		t.Errorf("gradients on a served body:\n%s", out)
	}
	_, recs, err := load(addr)
	if err != nil {
		t.Fatal(err)
	}
	coreRecv, org, transport := 0, 0, 0
	for _, r := range recs {
		switch {
		case r.Layer == "core" && r.Verb == "recv":
			coreRecv++
		case r.Layer == "core" && r.Verb == "org":
			org++
		case r.Layer == "transport":
			transport++
		}
	}
	out = runEach(t, []string{"budget"}, addr)
	if want := fmt.Sprintf("message budget: %d processing events", coreRecv+org); coreRecv == 0 || transport == 0 || !strings.Contains(out, want) {
		t.Errorf("budget over %d core recv, %d org and %d transport spans, want %q:\n%s", coreRecv, org, transport, want, out)
	}
	dataOrg := 0
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 4 && strings.HasSuffix(f[0], "DATA") {
			n, _ := strconv.Atoi(f[1])
			dataOrg += n
		}
	}
	if dataOrg == 0 {
		t.Errorf("the source's budget shows no data originations:\n%s", out)
	}
}

// On a header without rates, gradients names the field it needs.
func TestGradientsWithoutRates(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, append([]string{"gradients", "-node", "2"}, clusterServers(t)...))
	if err == nil || !strings.Contains(err.Error(), "no gradient_lifetime") {
		t.Errorf("gradients on a header without rates: %v", err)
	}
}
