package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"diffusion/internal/telemetry"
)

// startTestDaemon boots a daemon on ephemeral loopback ports and registers
// its shutdown with the test.
func startTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.HTTP == "" {
		cfg.HTTP = "127.0.0.1:0"
	}
	d, err := startDaemon(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Shutdown() })
	return d
}

// ctl issues one control-plane request and decodes the JSON response.
func ctl(t *testing.T, d *Daemon, method, path, body string) (int, map[string]any) {
	t.Helper()
	url := fmt.Sprintf("http://%s%s", d.HTTPAddr(), path)
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 {
		// Mux-level rejections (405 etc) are plain text; ignore those.
		_ = json.Unmarshal(raw, &out)
	}
	return resp.StatusCode, out
}

// TestControlPlaneLifecycle drives the full handle lifecycle over HTTP on a
// single node: subscribe, publish, send-to-self delivery, state, withdraw.
func TestControlPlaneLifecycle(t *testing.T) {
	cfg := Config{ID: 1, Drain: 10 * time.Millisecond,
		InterestInterval: 100 * time.Millisecond, ForwardJitter: time.Millisecond}
	d := startTestDaemon(t, cfg)

	code, resp := ctl(t, d, "POST", "/subscribe", "type EQ ping, interval IS 1")
	if code != 200 {
		t.Fatalf("subscribe: %d %v", code, resp)
	}
	sub := int(resp["handle"].(float64))
	if !strings.Contains(resp["attrs"].(string), `type EQ "ping"`) {
		t.Fatalf("subscribe echo = %v", resp["attrs"])
	}

	code, resp = ctl(t, d, "POST", "/publish", "type IS ping")
	if code != 200 {
		t.Fatalf("publish: %d %v", code, resp)
	}
	pub := int(resp["handle"].(float64))

	// Local subscription + local publication: a send delivers to self once
	// the subscription's interest entry has installed (the interest runs
	// through the jittered dispatch chain, so retry until it lands).
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, resp = ctl(t, d, "POST", "/send",
			fmt.Sprintf(`{"publication": %d, "attrs": "seq IS 1", "exploratory": true}`, pub))
		if code != 200 {
			t.Fatalf("send: %d %v", code, resp)
		}
		code, resp = ctl(t, d, "GET", "/deliveries", "")
		if code == 200 && resp["total"].(float64) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no delivery: %v", resp)
		}
		time.Sleep(20 * time.Millisecond)
	}
	recent := resp["recent"].([]any)
	first := recent[0].(map[string]any)
	if !strings.Contains(first["attrs"].(string), "seq IS 1") {
		t.Fatalf("delivered attrs = %v", first["attrs"])
	}

	code, resp = ctl(t, d, "GET", "/state", "")
	if code != 200 || len(resp["subscriptions"].([]any)) != 1 || len(resp["publications"].([]any)) != 1 {
		t.Fatalf("state: %d %v", code, resp)
	}

	if code, resp = ctl(t, d, "POST", "/unsubscribe", fmt.Sprintf(`{"handle": %d}`, sub)); code != 200 {
		t.Fatalf("unsubscribe: %d %v", code, resp)
	}
	if code, resp = ctl(t, d, "POST", "/unpublish", fmt.Sprintf(`{"handle": %d}`, pub)); code != 200 {
		t.Fatalf("unpublish: %d %v", code, resp)
	}
	// Withdrawn handles now 404.
	if code, _ = ctl(t, d, "POST", "/unsubscribe", fmt.Sprintf(`{"handle": %d}`, sub)); code != 404 {
		t.Fatalf("double unsubscribe: %d", code)
	}
	if code, _ = ctl(t, d, "POST", "/send", fmt.Sprintf(`{"publication": %d, "attrs": ""}`, pub)); code != 404 {
		t.Fatalf("send on dead publication: %d", code)
	}
}

// TestControlPlaneRejectsBadInput checks malformed bodies come back 4xx
// with a JSON error, never 500.
func TestControlPlaneRejectsBadInput(t *testing.T) {
	d := startTestDaemon(t, Config{ID: 1, Drain: 10 * time.Millisecond})
	cases := []struct {
		method, path, body string
	}{
		{"POST", "/subscribe", "type BETWEEN 1"},
		{"POST", "/publish", "task EQ_ANY extra"},
		{"POST", "/send", "not json"},
		{"POST", "/send", `{"publication": 1, "attrs": "x NOPE 3"}`},
		{"POST", "/unsubscribe", "{"},
	}
	for _, c := range cases {
		code, resp := ctl(t, d, c.method, c.path, c.body)
		if code < 400 || code >= 500 {
			t.Errorf("%s %s %q: code %d, want 4xx", c.method, c.path, c.body, code)
		}
		if _, ok := resp["error"]; !ok {
			t.Errorf("%s %s %q: no error field: %v", c.method, c.path, c.body, resp)
		}
	}
	// Wrong method gets rejected by the mux.
	code, _ := ctl(t, d, "GET", "/subscribe", "")
	if code != http.StatusMethodNotAllowed {
		t.Errorf("GET /subscribe: %d, want 405", code)
	}
}

// TestMetricsEndpoint checks /metrics serves valid, non-empty Prometheus
// text including transport and core series.
func TestMetricsEndpoint(t *testing.T) {
	d := startTestDaemon(t, Config{ID: 7, Drain: 10 * time.Millisecond,
		InterestInterval: 50 * time.Millisecond, ForwardJitter: time.Millisecond,
		Subscribe: []string{"type EQ probe, interval IS 1"}})
	time.Sleep(150 * time.Millisecond) // let a couple of interest refreshes run

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", d.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	checkPrometheusText(t, body)
	for _, want := range []string{
		`diffusion_core_sent_interest{scope="node7"}`,
		`diffusion_transport_sent{scope="node7"}`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// promSample matches one Prometheus text sample line: the scope label
// plus any extra labels (per-neighbor series carry peer="N").
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*\{scope="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\} (NaN|[+-]Inf|[-+0-9.eE]+)$`)

// checkPrometheusText validates every line of a Prometheus exposition.
func checkPrometheusText(t *testing.T, body []byte) {
	t.Helper()
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("bad sample line %q", line)
		}
		samples++
	}
	if samples == 0 {
		t.Error("no samples in exposition")
	}
}

// TestFiltersFromConfig installs each named filter at boot and checks an
// unknown name is rejected.
func TestFiltersFromConfig(t *testing.T) {
	startTestDaemon(t, Config{ID: 1, Drain: time.Millisecond,
		Filters: []string{"tap", "suppress:type EQ x", "cache"}})

	_, err := startDaemon(Config{ID: 2, Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Filters: []string{"bogus"}}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown name") {
		t.Fatalf("bogus filter: err = %v", err)
	}
}

// TestShutdownWithdrawsAndStops checks Shutdown withdraws the application
// layer, the control plane stops answering, and no goroutines leak — the
// in-process form of the daemon's clean-SIGTERM guarantee.
// TestSpansEndpoint: a traced node serves its span ring as JSONL — a
// header line with the clock base, then flow-tagged records — and an
// untraced node answers 404.
func TestSpansEndpoint(t *testing.T) {
	cfg := Config{ID: 1, Drain: 10 * time.Millisecond, TraceSample: 1,
		InterestInterval: 100 * time.Millisecond, ForwardJitter: time.Millisecond,
		Subscribe: []string{"type EQ ping, interval IS 1"}, Publish: []string{"type IS ping"}}
	d := startTestDaemon(t, cfg)

	// Drive a self-delivery so the ring holds a complete flow.
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, _ := ctl(t, d, "POST", "/send", `{"publication": 1, "attrs": "seq IS 1", "exploratory": true}`)
		if code != 200 {
			t.Fatalf("send: %d", code)
		}
		_, dv := ctl(t, d, "GET", "/deliveries", "")
		if total, _ := dv["total"].(float64); total >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no self-delivery within 2s")
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/spans", d.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/spans: %d %s", resp.StatusCode, body)
	}
	info, recs, err := telemetry.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/spans is not a JSONL trace: %v\n%s", err, body)
	}
	// The rates as core resolved them: the configured interest interval,
	// and the paper defaults derived from it or left in place.
	if info.InterestInterval != "100ms" || info.GradientLifetime != "250ms" || info.ExploratoryInterval != "1m0s" {
		t.Errorf("header rates interest=%q gradient_lifetime=%q exploratory=%q, want 100ms, 250ms and 1m0s",
			info.InterestInterval, info.GradientLifetime, info.ExploratoryInterval)
	}
	if info.Node != 1 || info.Boot == 0 || info.StartUnixUS == 0 || len(recs) == 0 ||
		!strings.Contains(strings.SplitN(string(body), "\n", 2)[0], fmt.Sprintf(`"records":%d`, len(recs))) {
		t.Fatalf("run info %+v, %d records:\n%s", info, len(recs), body)
	}
	sawFlow, sawDeliver := false, false
	for _, rec := range recs {
		if rec.Flow != 0 {
			sawFlow = true
		}
		if rec.Verb == "deliver" {
			sawDeliver = true
		}
	}
	if !sawFlow || !sawDeliver {
		t.Errorf("spans missing flow tags (%v) or a deliver event (%v):\n%s", sawFlow, sawDeliver, body)
	}

	// Tracing off: 404.
	off := startTestDaemon(t, Config{ID: 2, Drain: time.Millisecond,
		InterestInterval: time.Second, ForwardJitter: time.Millisecond})
	if code, _ := ctl(t, off, "GET", "/spans", ""); code != 404 {
		t.Errorf("/spans without tracing: %d, want 404", code)
	}
}

// TestPprofOptIn: the profiling endpoints exist only behind the flag.
func TestPprofOptIn(t *testing.T) {
	on := startTestDaemon(t, Config{ID: 1, Drain: time.Millisecond, Pprof: true,
		InterestInterval: time.Second, ForwardJitter: time.Millisecond})
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", on.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index with -pprof: %d, want 200", resp.StatusCode)
	}

	off := startTestDaemon(t, Config{ID: 2, Drain: time.Millisecond,
		InterestInterval: time.Second, ForwardJitter: time.Millisecond})
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", off.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Error("pprof index reachable without -pprof")
	}
}

// TestShutdownDumpsFlightRecorder: the drain path must dump the flight
// ring to the log even when no fault ever fired.
func TestShutdownDumpsFlightRecorder(t *testing.T) {
	log := newLockedBuffer()
	d, err := startDaemon(Config{ID: 9, Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0",
		Drain: time.Millisecond, InterestInterval: time.Second,
		ForwardJitter: time.Millisecond}, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "flight dump (shutdown drain)") {
		t.Errorf("shutdown log has no flight dump:\n%s", log.String())
	}
}

func TestShutdownWithdrawsAndStops(t *testing.T) {
	base := runtime.NumGoroutine()
	d := startTestDaemon(t, Config{ID: 3, Drain: 20 * time.Millisecond,
		InterestInterval: 50 * time.Millisecond, ForwardJitter: time.Millisecond,
		Subscribe: []string{"type EQ a"}, Publish: []string{"type IS a"},
		Filters: []string{"suppress"}})
	addr := d.HTTPAddr().String()

	if err := d.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := d.Shutdown(); err != nil { // idempotent
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", addr)); err == nil {
		t.Error("control plane still answering after shutdown")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
