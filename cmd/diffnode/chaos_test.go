package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diffusion/internal/chaos"
)

// TestChaosKillRelayRecovery is the live-cluster resilience test: a
// 5-process line topology over loopback UDP, reliable links and fast
// failure detection, driven by the internal/chaos harness. It SIGKILLs
// the relay carrying the reinforced path, requires the neighbors'
// failure detectors to notice (flight dumps on their logs), restarts the
// relay from its persisted state file, and requires end-to-end delivery
// to resume within two exploratory intervals of the relay coming back.
// A partition of the sink then proves /healthz turns 503 while isolated
// and the path re-forms after healing; a loss ramp on a relay proves
// the reliable link keeps delivering through 20% loss. Every surviving
// node must serve valid Prometheus metrics including the heartbeat,
// retransmit and recovery series, and every node must exit cleanly on
// SIGTERM (a leaked goroutine would hang the daemon's shutdown).
//
// Gated behind DIFFUSION_CHAOS=1: the test takes tens of wall-clock
// seconds and depends on real timers, so CI runs it in a dedicated job,
// isolated from the unit suite.
func TestChaosKillRelayRecovery(t *testing.T) {
	if os.Getenv("DIFFUSION_CHAOS") != "1" {
		t.Skip("set DIFFUSION_CHAOS=1 to run the live chaos test")
	}
	if testing.Short() {
		t.Skip("live chaos test skipped in -short mode")
	}

	bin := filepath.Join(t.TempDir(), "diffnode")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	const (
		n                = 5
		exploratoryEvery = 2 * time.Second
	)
	udp := freeUDPPorts(t, n)
	httpPorts := freeTCPPorts(t, n)
	stateDir := t.TempDir()

	// Line topology 1(sink)-2-3-4-5(source).
	procs := make([]*chaos.Proc, n)
	logs := make([]*lockedBuffer, n)
	for i := 0; i < n; i++ {
		id := i + 1
		var nb []string
		if i > 0 {
			nb = append(nb, fmt.Sprintf("%d=127.0.0.1:%d", id-1, udp[i-1]))
		}
		if i < n-1 {
			nb = append(nb, fmt.Sprintf("%d=127.0.0.1:%d", id+1, udp[i+1]))
		}
		logs[i] = newLockedBuffer()
		p, err := chaos.Start(chaos.ProcSpec{
			ID:   uint32(id),
			HTTP: fmt.Sprintf("127.0.0.1:%d", httpPorts[i]),
			Log:  logs[i],
			Argv: []string{bin,
				"-id", fmt.Sprint(id),
				"-listen", fmt.Sprintf("127.0.0.1:%d", udp[i]),
				"-http", fmt.Sprintf("127.0.0.1:%d", httpPorts[i]),
				"-neighbors", strings.Join(nb, ","),
				"-interest-interval", "300ms",
				"-exploratory-interval", exploratoryEvery.String(),
				"-forward-jitter", "10ms",
				"-heartbeat", "100ms",
				"-suspect-after", "300ms",
				"-dead-after", "600ms",
				"-reliable",
				"-state-file", filepath.Join(stateDir, fmt.Sprintf("node%d.state", id)),
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

	// A canary subscription installed over HTTP on the relay: it lives
	// only in the relay's state file, so its survival across SIGKILL
	// proves the warm restart really restored persisted state.
	if code, resp := chaosPost(t, relay, "/subscribe", "type EQ canary, interval IS 60"); code != 200 {
		t.Fatalf("canary subscribe: %d %v", code, resp)
	}

	// Workload: sink subscribes, source publishes and streams events.
	if code, resp := chaosPost(t, sink, "/subscribe",
		"type EQ four-legged-animal-search, interval IS 1"); code != 200 {
		t.Fatalf("subscribe: %d %v", code, resp)
	}
	code, resp := chaosPost(t, source, "/publish", "type IS four-legged-animal-search")
	if code != 200 {
		t.Fatalf("publish: %d %v", code, resp)
	}
	pub := int(resp["handle"].(float64))

	var seq atomic.Int64
	stopSend := make(chan struct{})
	t.Cleanup(func() { close(stopSend) })
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSend:
				return
			case <-tick.C:
				if !source.Alive() {
					continue
				}
				chaosPostQuiet(source, "/send", fmt.Sprintf(
					`{"publication": %d, "attrs": "sequence IS %d"}`, pub, seq.Add(1)))
			}
		}
	}()

	delivered := func() float64 {
		_, dv := chaosGet(t, sink, "/deliveries")
		total, _ := dv["total"].(float64)
		return total
	}
	waitCluster(t, 20*time.Second, "steady delivery before the fault", func() bool {
		return delivered() >= 5
	})

	// --- Crash fault: SIGKILL the reinforced relay. ---
	if err := relay.Kill(); err != nil {
		t.Fatal(err)
	}
	// Both neighbors must detect the death and dump their flight rings.
	waitCluster(t, 10*time.Second, "flight dumps at the relay's neighbors", func() bool {
		return strings.Contains(logs[1].String(), "flight dump (neighbor 3 died)") &&
			strings.Contains(logs[3].String(), "flight dump (neighbor 3 died)")
	})

	preRestart := delivered()
	if err := relay.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := relay.WaitHealthy(10 * time.Second); err != nil {
		t.Fatalf("%v\n%s", err, logs[2].String())
	}
	restartAt := time.Now()

	// The warm restart restored the canary from the state file (the
	// restarted argv carries no -subscribe flag).
	_, st := chaosGet(t, relay, "/state")
	subs, _ := st["subscriptions"].([]any)
	if len(subs) != 1 || !strings.Contains(
		subs[0].(map[string]any)["attrs"].(string), `type EQ "canary"`) {
		t.Fatalf("relay state after restart = %v\n%s", st, logs[2].String())
	}

	// Acceptance: delivery resumes within two exploratory intervals of
	// the relay coming back.
	waitCluster(t, 2*exploratoryEvery, "delivery to resume after restart", func() bool {
		return delivered() >= preRestart+3
	})
	t.Logf("delivery resumed %v after relay restart", time.Since(restartAt).Round(100*time.Millisecond))

	// --- Partition fault: isolate the sink. ---
	if err := chaos.PartitionGroups([]*chaos.Proc{sink}, []*chaos.Proc{procs[1]}); err != nil {
		t.Fatal(err)
	}
	waitCluster(t, 10*time.Second, "sink to report isolation via 503", func() bool {
		code, body, err := sink.Healthz()
		return err == nil && code == http.StatusServiceUnavailable && body["isolated"] == true
	})
	if err := chaos.HealAll(sink, procs[1]); err != nil {
		t.Fatal(err)
	}
	if err := sink.WaitHealthy(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	healed := delivered()
	waitCluster(t, 2*exploratoryEvery+2*time.Second, "delivery to resume after heal", func() bool {
		return delivered() >= healed+3
	})

	// --- Loss: the reliable link must deliver through 20% loss. ---
	if err := procs[1].SetLoss(0.2); err != nil {
		t.Fatal(err)
	}
	rampStart := delivered()
	waitCluster(t, 10*time.Second, "delivery under 20% loss", func() bool {
		return delivered() >= rampStart+3
	})
	if err := procs[1].SetLoss(0); err != nil {
		t.Fatal(err)
	}

	// Every node serves valid Prometheus text including the heartbeat,
	// retransmit and recovery series; the restarted relay shows the warm
	// restart; the relay's neighbors counted its death.
	for i := range procs {
		id := i + 1
		httpResp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/metrics", httpPorts[i]))
		if err != nil {
			t.Fatalf("node %d metrics: %v", id, err)
		}
		body, _ := io.ReadAll(httpResp.Body)
		httpResp.Body.Close()
		if httpResp.StatusCode != 200 {
			t.Fatalf("node %d metrics: %d", id, httpResp.StatusCode)
		}
		checkPrometheusText(t, body)
		scope := func(name string) string {
			return fmt.Sprintf(`diffusion_%s{scope="node%d"}`, name, id)
		}
		if sentValue(t, body, scope("transport_heartbeats_sent")) == 0 {
			t.Errorf("node %d sent no heartbeats", id)
		}
		if sentValue(t, body, scope("recovery_state_saves")) < 1 {
			t.Errorf("node %d recorded no state saves", id)
		}
		for _, series := range []string{"transport_retransmits", "transport_acks_recv",
			"transport_peer_deaths", "recovery_warm_restart", "core_neighbor_deaths"} {
			if !strings.Contains(string(body), scope(series)) {
				t.Errorf("node %d metrics missing %s", id, series)
			}
		}
	}
	for _, i := range []int{1, 3} { // the dead relay's neighbors
		body := promBody(t, httpPorts[i])
		if sentValue(t, body, fmt.Sprintf(`diffusion_transport_peer_deaths{scope="node%d"}`, i+1)) < 1 {
			t.Errorf("node %d counted no peer deaths", i+1)
		}
	}
	if v := sentValue(t, promBody(t, httpPorts[2]),
		`diffusion_recovery_warm_restart{scope="node3"}`); v != 1 {
		t.Errorf("relay warm_restart gauge = %v, want 1", v)
	}

	// Clean SIGTERM exit on every node: the daemon's shutdown joins every
	// goroutine it started, so a leak shows up as a hung (then killed,
	// hence failed) termination.
	for i, p := range procs {
		if err := p.Terminate(15 * time.Second); err != nil {
			t.Errorf("%v\n%s", err, logs[i].String())
		}
	}
}

// promBody fetches one node's /metrics body.
func promBody(t *testing.T, port int) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("http://127.0.0.1:%d/metrics", port))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return body
}

// chaosPost / chaosGet issue control-plane calls against a harness proc.
func chaosPost(t *testing.T, p *chaos.Proc, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(chaosURL(p, path), "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("member %d POST %s: %v", p.ID(), path, err)
	}
	defer resp.Body.Close()
	return decodeJSON(resp)
}

// chaosPostQuiet is chaosPost for background senders: errors (e.g. a
// member mid-restart) are swallowed.
func chaosPostQuiet(p *chaos.Proc, path, body string) {
	resp, err := http.Post(chaosURL(p, path), "text/plain", strings.NewReader(body))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func chaosGet(t *testing.T, p *chaos.Proc, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(chaosURL(p, path))
	if err != nil {
		t.Fatalf("member %d GET %s: %v", p.ID(), path, err)
	}
	defer resp.Body.Close()
	return decodeJSON(resp)
}

func chaosURL(p *chaos.Proc, path string) string {
	return fmt.Sprintf("http://%s%s", p.HTTPAddr(), path)
}
