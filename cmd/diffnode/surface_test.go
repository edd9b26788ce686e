package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// metricsSeries is the pin of /metrics: every series name, labels
// included, with the values stripped, sorted.
const metricsSeries = "testdata/metrics_series.txt"

// TestMetricsSeriesPinned holds the names /metrics serves to
// testdata/metrics_series.txt, taken from a daemon with every optional
// collector on: a custody journal, reliable unicast, discovery, one static
// neighbor and flight-path tracing. Run with -update to rewrite it.
func TestMetricsSeriesPinned(t *testing.T) {
	d := startTestDaemon(t, Config{ID: 4, Drain: time.Millisecond,
		Neighbors: map[uint32]string{5: fmt.Sprintf("127.0.0.1:%d", freeUDPPorts(t, 1)[0])},
		Custody:   true, CustodyFile: filepath.Join(t.TempDir(), "node.custody"),
		Reliable: true, Discover: true, TraceSample: 1,
		InterestInterval: time.Second, ForwardJitter: time.Millisecond})
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", d.HTTPAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if !strings.HasPrefix(line, "#") {
			names = append(names, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
	if *update {
		if err := os.WriteFile(metricsSeries, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsSeries)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics series drifted from %s:\n--- got\n%s--- want\n%s", metricsSeries, got, want)
	}
}

// TestBootFailureUnwinds: a boot that fails after the stack is up — here
// an address file that cannot be written, or a filter nobody knows —
// returns the error without draining a node that never served, and leaves
// both of its ports free to bind again at once.
func TestBootFailureUnwinds(t *testing.T) {
	for name, cfg := range map[string]Config{
		"addr-file":      {AddrFile: filepath.Join(t.TempDir(), "missing", "node.addr")},
		"unknown-filter": {Filters: []string{"bogus"}},
	} {
		t.Run(name, func(t *testing.T) {
			udp, tcp := freeUDPPorts(t, 1)[0], freeTCPPorts(t, 1)[0]
			cfg.ID, cfg.Drain = 1, 50*time.Millisecond
			cfg.Listen, cfg.HTTP = fmt.Sprintf("127.0.0.1:%d", udp), fmt.Sprintf("127.0.0.1:%d", tcp)
			log := newLockedBuffer()
			if d, err := startDaemon(cfg, log); err == nil {
				d.Shutdown()
				t.Fatal("startDaemon succeeded")
			}
			if strings.Contains(log.String(), "draining") {
				t.Errorf("a failed boot drained:\n%s", log.String())
			}
			pc, err := net.ListenPacket("udp", cfg.Listen)
			if err != nil {
				t.Fatalf("UDP port still held: %v", err)
			}
			pc.Close()
			ln, err := net.Listen("tcp", cfg.HTTP)
			if err != nil {
				t.Fatalf("HTTP port still held: %v", err)
			}
			ln.Close()
		})
	}
}
