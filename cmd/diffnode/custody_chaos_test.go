package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diffusion/internal/chaos"
)

// TestChaosCustodyLongPartition is the disruption-tolerance acceptance
// test: a 5-process line 1(sink)-2-3-4-5(source) with custody transfer
// and fsync'd custody journals, partitioned between nodes 2 and 3 for
// ~8× the soft-state decay horizon (GradientLifetime = 2.5 × the 300ms
// interest interval), with the custodian relay 3 SIGKILLed and
// warm-restarted mid-partition. The source streams sequenced data the
// whole time. Acceptance:
//
//   - zero reinforced-class loss: every sequence the source emitted is
//     delivered at the sink after the heal, including those that crossed
//     the custodian's crash (its journal must restore them);
//   - zero duplicate deliveries: hop-by-hop custody transfer plus the
//     sink's duplicate suppression keep delivery exactly-once (the
//     sink's -seen-ttl outlives the partition by design);
//   - custody metrics (accepted/released/replayed/shed) are served by
//     every node, every custody queue drains once the acks have travelled
//     back up the line, and the restarted custodian reports restored items.
//
// Gated behind DIFFUSION_CHAOS=1 like the other live chaos tests.
func TestChaosCustodyLongPartition(t *testing.T) {
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

	const n = 5
	udp := freeUDPPorts(t, n)
	httpPorts := freeTCPPorts(t, n)
	stateDir := t.TempDir()

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
				"-exploratory-interval", "2s",
				"-forward-jitter", "10ms",
				"-heartbeat", "100ms",
				"-suspect-after", "300ms",
				"-dead-after", "600ms",
				"-reliable",
				"-custody-file", filepath.Join(stateDir, fmt.Sprintf("node%d.custody", id)),
				"-seen-ttl", "2m", // must outlive the partition at the sink
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
	sink, custodian, source := procs[0], procs[2], procs[4]

	if code, resp := chaosPost(t, sink, "/subscribe",
		"type EQ custody-stream, interval IS 1"); code != 200 {
		t.Fatalf("subscribe: %d %v", code, resp)
	}
	code, resp := chaosPost(t, source, "/publish", "type IS custody-stream")
	if code != 200 {
		t.Fatalf("publish: %d %v", code, resp)
	}
	pub := int(resp["handle"].(float64))

	// The source streams one sequenced message per 100ms for the whole
	// test; the source process is never faulted, so every send succeeds
	// and the final counter value is exactly the ground-truth send set.
	var seq atomic.Int64
	stopSend := make(chan struct{})
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSend:
				return
			case <-tick.C:
				chaosPostQuiet(source, "/send", fmt.Sprintf(
					`{"publication": %d, "attrs": "sequence IS %d"}`, pub, seq.Add(1)))
			}
		}
	}()
	stopSender := func() int64 {
		select {
		case <-sendDone: // already stopped
		default:
			close(stopSend)
			<-sendDone
		}
		return seq.Load()
	}
	defer stopSender()

	delivered := func() float64 {
		_, dv := chaosGet(t, sink, "/deliveries")
		total, _ := dv["total"].(float64)
		return total
	}
	waitCluster(t, 20*time.Second, "steady delivery before the partition", func() bool {
		return delivered() >= 5
	})

	// --- Partition 2↔3: the sink side goes dark for ~8× the soft-state
	// decay horizon (2.5 × 300ms = 750ms). Custody accumulates on the
	// source side: at 3 until its gradients from 4 decay, then at 4 and
	// the source itself.
	partitionStart := time.Now()
	if err := chaos.PartitionGroups([]*chaos.Proc{procs[1]}, []*chaos.Proc{custodian}); err != nil {
		t.Fatal(err)
	}

	// Let the custodian take custody of a few stranded messages, then
	// SIGKILL it mid-partition. The fsync'd journal is now the only copy
	// of whatever it had accepted (its upstream discharged on ack).
	time.Sleep(2 * time.Second)
	if err := custodian.Kill(); err != nil {
		t.Fatal(err)
	}
	waitCluster(t, 10*time.Second, "node 4 to detect the custodian's death", func() bool {
		return strings.Contains(logs[3].String(), "flight dump (neighbor 3 died)")
	})
	if err := custodian.Restart(); err != nil {
		t.Fatal(err)
	}
	if err := custodian.WaitHealthy(10 * time.Second); err != nil {
		t.Fatalf("%v\n%s", err, logs[2].String())
	}
	if !strings.Contains(logs[2].String(), "custody recovered") {
		t.Fatalf("custodian restart did not restore journal items:\n%s", logs[2].String())
	}

	// Hold the partition until it has lasted 6s total (8× the decay
	// horizon), then heal.
	if rest := 6*time.Second - time.Since(partitionStart); rest > 0 {
		time.Sleep(rest)
	}
	if err := chaos.HealAll(procs[1], custodian); err != nil {
		t.Fatal(err)
	}
	healedAt := time.Now()

	// Let the gradients rebuild and the custody chains drain, then stop
	// the stream and require completeness.
	waitCluster(t, 30*time.Second, "delivery to resume after heal", func() bool {
		return delivered() >= 5+float64(seq.Load())/4
	})
	sent := stopSender()

	// Every sequence 1..sent must arrive exactly once. The delivery ring
	// (1024 deep) covers the whole stream at this cadence and duration.
	seqRe := regexp.MustCompile(`sequence IS (\d+)`)
	counts := make(map[int64]int)
	waitCluster(t, 60*time.Second, "all custody to drain to the sink", func() bool {
		_, dv := chaosGet(t, sink, "/deliveries")
		recent, _ := dv["recent"].([]any)
		counts = make(map[int64]int)
		for _, e := range recent {
			attrs, _ := e.(map[string]any)["attrs"].(string)
			m := seqRe.FindStringSubmatch(attrs)
			if m == nil {
				continue
			}
			v, _ := strconv.ParseInt(m[1], 10, 64)
			counts[v]++
		}
		return int64(len(counts)) >= sent
	})
	var missing, dup []int64
	for s := int64(1); s <= sent; s++ {
		switch {
		case counts[s] == 0:
			missing = append(missing, s)
		case counts[s] > 1:
			dup = append(dup, s)
		}
	}
	if len(missing) > 0 {
		t.Errorf("reinforced-class loss: %d of %d sequences missing: %v",
			len(missing), sent, missing)
	}
	if len(dup) > 0 {
		t.Errorf("duplicate deliveries: %v", dup)
	}
	t.Logf("partition %v, %d sequences, %d delivered exactly once, drained %v after the heal",
		healedAt.Sub(partitionStart).Round(time.Second), sent, len(counts), time.Since(healedAt).Round(100*time.Millisecond))

	// Custody metrics on every node; the restarted custodian shows
	// restored journal items and a positive replay count somewhere on the
	// source side proves the store-and-forward path actually ran.
	for i := range procs {
		id := i + 1
		body := promBody(t, httpPorts[i])
		checkPrometheusText(t, body)
		for _, series := range []string{"custody_accepted", "custody_released",
			"custody_replayed", "custody_shed", "custody_queue_len"} {
			if !strings.Contains(string(body),
				fmt.Sprintf(`diffusion_%s{scope="node%d"}`, series, id)) {
				t.Errorf("node %d metrics missing %s", id, series)
			}
		}
	}
	// The queues empty hop by hop after the last delivery, not with it: a
	// custodian releases an item when the next hop's durable-accept ack
	// comes back, and the sink's ack still has the line to travel when the
	// sink counts its last sequence. So the drained state is awaited — every
	// node's /custody showing no queued item and no outstanding offer —
	// under a deadline, instead of being asserted the instant the stream
	// completes (which failed about two runs in five).
	for _, p := range procs {
		waitCluster(t, 15*time.Second, fmt.Sprintf("node %d to drain its custody queue", p.ID()), func() bool {
			_, c := chaosGet(t, p, "/custody")
			return c["len"] == 0.0 && c["pending_offers"] == 0.0
		})
	}
	if v := sentValue(t, promBody(t, httpPorts[2]),
		`diffusion_custody_restored{scope="node3"}`); v < 1 {
		t.Errorf("custodian restored gauge = %v, want >= 1", v)
	}
	replays := 0.0
	for _, i := range []int{2, 3, 4} {
		replays += sentValue(t, promBody(t, httpPorts[i]),
			fmt.Sprintf(`diffusion_custody_replayed{scope="node%d"}`, i+1))
	}
	if replays == 0 {
		t.Error("no custody replays recorded on the source side")
	}

	for i, p := range procs {
		if err := p.Terminate(15 * time.Second); err != nil {
			t.Errorf("%v\n%s", err, logs[i].String())
		}
	}
}
