package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diffusion/internal/chaos"
)

// TestChaosFlightPathReconstruction is the live acceptance test for
// cluster-wide flight-path tracing: a 5-process line 1(sink)-2-3-4-5
// (source) over loopback UDP with -trace-sample 1, scraped and merged by
// difftrace (run() in-process). Before any fault, the merged reports must
// reconstruct a complete source→sink flight path — every
// relay hop annotated with its latency — plus end-to-end percentiles.
// Then the reinforced relay (node 3) is SIGKILLed while the source keeps
// sending; once its neighbors' failure detectors purge the gradients
// toward it, the next flows die at node 4 for lack of an onward path,
// and a scrape of the four survivors must localize the drop there.
//
// Gated behind DIFFUSION_CHAOS=1 like the diffnode chaos suite: real
// processes, real timers, tens of seconds.
func TestChaosFlightPathReconstruction(t *testing.T) {
	if os.Getenv("DIFFUSION_CHAOS") != "1" {
		t.Skip("set DIFFUSION_CHAOS=1 to run the live flight-path test")
	}
	if testing.Short() {
		t.Skip("live flight-path test skipped in -short mode")
	}

	bin := filepath.Join(t.TempDir(), "diffnode")
	if out, err := exec.Command("go", "build", "-o", bin, "diffusion/cmd/diffnode").CombinedOutput(); err != nil {
		t.Fatalf("go build diffnode: %v\n%s", err, out)
	}

	const n = 5
	udp := freePorts(t, n, "udp")
	httpPorts := freePorts(t, n, "tcp")

	// Line topology 1(sink)-2-3-4-5(source). The interest interval is a
	// full second (gradient lifetime 2.5s): after the relay dies, its
	// upstream neighbor purges gradients at dead-after (~600ms) while the
	// source's own gradient stays fresh long enough to keep forwarding —
	// the window in which flows observably die at node 4.
	procs := make([]*chaos.Proc, n)
	logs := make([]*syncBuffer, n)
	for i := 0; i < n; i++ {
		id := i + 1
		var nb []string
		if i > 0 {
			nb = append(nb, fmt.Sprintf("%d=127.0.0.1:%d", id-1, udp[i-1]))
		}
		if i < n-1 {
			nb = append(nb, fmt.Sprintf("%d=127.0.0.1:%d", id+1, udp[i+1]))
		}
		logs[i] = &syncBuffer{}
		p, err := chaos.Start(chaos.ProcSpec{
			ID:   uint32(id),
			HTTP: fmt.Sprintf("127.0.0.1:%d", httpPorts[i]),
			Log:  logs[i],
			Argv: []string{bin,
				"-id", fmt.Sprint(id),
				"-listen", fmt.Sprintf("127.0.0.1:%d", udp[i]),
				"-http", fmt.Sprintf("127.0.0.1:%d", httpPorts[i]),
				"-neighbors", strings.Join(nb, ","),
				"-interest-interval", "1s",
				"-exploratory-interval", "2s",
				"-forward-jitter", "10ms",
				"-heartbeat", "100ms",
				"-suspect-after", "300ms",
				"-dead-after", "600ms",
				"-reliable",
				"-trace-sample", "1",
				"-drain", "200ms",
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		t.Cleanup(func() {
			if p.Alive() {
				p.Kill()
			}
		})
	}
	for i, p := range procs {
		if err := p.WaitHealthy(10 * time.Second); err != nil {
			t.Fatalf("%v\n%s", err, logs[i].String())
		}
	}
	sink, relay, source := procs[0], procs[2], procs[4]
	addrs := make([]string, n)
	for i, p := range procs {
		addrs[i] = "http://" + p.HTTPAddr()
	}

	// Workload: sink subscribes, source publishes and streams events.
	ctrl(t, sink, "/subscribe", "type EQ four-legged-animal-search, interval IS 1")
	pubResp := ctrl(t, source, "/publish", "type IS four-legged-animal-search")
	pub := int(pubResp["handle"].(float64))

	var seq atomic.Int64
	send := func() {
		resp, err := http.Post("http://"+source.HTTPAddr()+"/send", "text/plain",
			strings.NewReader(fmt.Sprintf(`{"publication": %d, "attrs": "sequence IS %d"}`, pub, seq.Add(1))))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	delivered := func() float64 {
		total, _ := ctrl(t, sink, "/deliveries", "")["total"].(float64)
		return total
	}
	for delivered() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("no steady delivery before the fault\n%s", logs[0].String())
		}
		send()
		time.Sleep(100 * time.Millisecond)
	}

	// --- Healthy-cluster scrape: complete path, per-hop latencies. ---
	out := runEach(t, []string{"info", "paths", "latency"}, addrs...)
	t.Logf("healthy-cluster report:\n%s", out)
	fullPath := regexp.MustCompile(
		`n5 -\([^)]+\)-> n4 -\([^)]+\)-> n3 -\([^)]+\)-> n2 -\([^)]+\)-> n1`)
	if !fullPath.MatchString(out) {
		t.Errorf("no complete source→sink path with per-hop latencies in report:\n%s", out)
	}
	for _, want := range []string{"nodes=5", "delivered at node 1", "per-hop", "end-to-end", "p99="} {
		if !strings.Contains(out, want) {
			t.Errorf("healthy report missing %q:\n%s", want, out)
		}
	}

	// --- Kill the reinforced relay; keep the source sending. ---
	if err := relay.Kill(); err != nil {
		t.Fatal(err)
	}
	// Node 4 notices the death (its log dumps the flight ring) and purges
	// the gradients toward node 3.
	purged := func() bool {
		return strings.Contains(logs[3].String(), "flight dump (neighbor 3 died)")
	}
	for start := time.Now(); !purged(); {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("node 4 never detected the relay's death\n%s", logs[3].String())
		}
		send()
		time.Sleep(100 * time.Millisecond)
	}
	// Flows sent now reach node 4 (the source's gradient is still fresh)
	// and die there: no gradient points onward. Send for a moment, then
	// let the last spans land.
	for i := 0; i < 10; i++ {
		send()
		time.Sleep(100 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)

	// --- Survivor scrape: the drop is localized at node 4. ---
	survivors := []string{addrs[0], addrs[1], addrs[3], addrs[4]}
	out = runEach(t, []string{"paths"}, survivors...)
	t.Logf("survivor report:\n%s", out)
	// The interest entry at node 4 survives the death — only the gradient
	// toward node 3 was purged — so the flows die one hop in with
	// "no-path", and no custodian holds them.
	if !strings.Contains(out, "died at node 4 (hop 1): no-path, custody not enabled") {
		t.Errorf("drop not localized at node 4 with a no-path verdict:\n%s", out)
	}
	if !strings.Contains(out, "undelivered flows:") {
		t.Errorf("report missing undelivered section:\n%s", out)
	}

	// Clean shutdown of the survivors.
	for i, p := range procs {
		if !p.Alive() {
			continue
		}
		if err := p.Terminate(15 * time.Second); err != nil {
			t.Errorf("%v\n%s", err, logs[i].String())
		}
	}
}

// ctrl issues one control-plane call and decodes the JSON reply; GET
// when body is empty, POST otherwise.
func ctrl(t *testing.T, p *chaos.Proc, path, body string) map[string]any {
	t.Helper()
	var (
		resp *http.Response
		err  error
	)
	if body == "" {
		resp, err = http.Get("http://" + p.HTTPAddr() + path)
	} else {
		resp, err = http.Post("http://"+p.HTTPAddr()+path, "text/plain", strings.NewReader(body))
	}
	if err != nil {
		t.Fatalf("node %d %s: %v", p.ID(), path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("node %d %s: %d %s", p.ID(), path, resp.StatusCode, raw)
	}
	var v map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("node %d %s: bad JSON %q: %v", p.ID(), path, raw, err)
		}
	}
	return v
}

// freePorts reserves n distinct loopback ports of the given kind.
func freePorts(t *testing.T, n int, kind string) []int {
	t.Helper()
	ports, err := chaos.FreePorts(kind, n)
	if err != nil {
		t.Fatal(err)
	}
	return ports
}

// syncBuffer is a mutex-guarded log sink for child process output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
