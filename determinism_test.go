package diffusion_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"diffusion"
	"diffusion/internal/experiments"
)

// The engine's contract: a run is a pure function of its seed. These tests
// assert it end to end, on the full protocol stack, over the exported JSONL
// trace and the metrics snapshot — between two runs of one build, and
// against fingerprints recorded at the last commit that still had the
// sharded kernel (PR 14, c398a3a), so the move to one event heap is held to
// that kernel's bytes.

// fingerprint is the first 8 bytes of SHA-256 over the parts, in hex.
func fingerprint(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// detRun executes a loaded testbed scenario — four sources reporting to
// the sink over the lossy default channel, with node churn injected — and
// returns the exported trace and metrics snapshot.
func detRun(t *testing.T, seed int64) (trace, metrics []byte) {
	return detRunSampled(t, seed, 0)
}

// detRunSampled is detRun with flight-path tracing at the given sampling
// rate.
func detRunSampled(t *testing.T, seed int64, sampling float64) (trace, metrics []byte) {
	t.Helper()
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:          seed,
		Topology:      diffusion.TestbedTopology(),
		TraceSampling: sampling,
	})
	tr := net.NewTrace(0)
	interest, publication := surveillance()
	net.Node(diffusion.TestbedSink).Subscribe(interest, func(*diffusion.Message) {})
	for _, id := range diffusion.TestbedSources() {
		src := net.Node(id)
		pub := src.Publish(publication)
		seq := int32(0)
		net.Every(2*time.Second, func() {
			seq++
			src.Send(pub, diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
			})
		})
	}
	inj := net.NewFaultInjector()
	inj.Churn(diffusion.ChurnConfig{
		Start: 30 * time.Second,
		Stop:  4 * time.Minute,
		MTBF:  time.Minute,
		MTTR:  20 * time.Second,
		Nodes: []uint32{20, 21, 24},
	})
	net.Run(5 * time.Minute)
	var tb, mb bytes.Buffer
	if err := tr.ExportJSONL(&tb); err != nil {
		t.Fatalf("export: %v", err)
	}
	net.MetricsSnapshot().Write(&mb)
	return tb.Bytes(), mb.Bytes()
}

func TestSameSeedIdenticalTraceHash(t *testing.T) {
	t1, m1 := detRun(t, 42)
	t2, m2 := detRun(t, 42)
	if sha256.Sum256(t1) != sha256.Sum256(t2) {
		t.Error("same seed produced different traces")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("same seed produced different metrics snapshots")
	}
	t3, _ := detRun(t, 43)
	if sha256.Sum256(t1) == sha256.Sum256(t3) {
		t.Error("different seeds produced identical traces")
	}
}

func TestPinnedFingerprintTestbed(t *testing.T) {
	tr, m := detRun(t, 42)
	if got := fingerprint(tr, m); got != "b5f79551d6303b31" || len(tr) != 245231 {
		t.Errorf("testbed run: fingerprint %s over a %d-byte trace, pinned b5f79551d6303b31 over 245231", got, len(tr))
	}
}

// TestPinnedFingerprintTraced pins the run with flight-path tracing sampled
// at 100% (the span records merged into the exported trace) and at 25% (the
// sampling draws come from the per-node streams), and checks that tracing
// off stays byte-identical to the untraced scenario.
func TestPinnedFingerprintTraced(t *testing.T) {
	tr, m := detRunSampled(t, 42, 1.0)
	if !bytes.Contains(tr, []byte(`"flow":`)) {
		t.Fatal("sampled run exported no flight-path spans")
	}
	if got := fingerprint(tr, m); got != "3fe22425e700491d" || len(tr) != 1201286 {
		t.Errorf("100%% sampling: fingerprint %s over a %d-byte trace, pinned 3fe22425e700491d over 1201286", got, len(tr))
	}
	tr, m = detRunSampled(t, 42, 0.25)
	if got := fingerprint(tr, m); got != "986c2741add7210e" || len(tr) != 448315 {
		t.Errorf("25%% sampling: fingerprint %s over a %d-byte trace, pinned 986c2741add7210e over 448315", got, len(tr))
	}
	off, _ := detRunSampled(t, 42, 0)
	base, _ := detRun(t, 42)
	if !bytes.Equal(off, base) {
		t.Error("sampling=0 run differs from untraced run")
	}
}

// gridRun is a 16x16 grid — 256 nodes, sink in one corner, sources in the
// other three, so traffic crosses the whole grid.
func gridRun(t *testing.T) (trace, metrics []byte) {
	t.Helper()
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     7,
		Topology: diffusion.GridTopology(16, 16, 9),
	})
	tr := net.NewTrace(0)
	interest, publication := surveillance()
	net.Node(1).Subscribe(interest, func(*diffusion.Message) {})
	for _, id := range []uint32{16, 241, 256} {
		src := net.Node(id)
		pub := src.Publish(publication)
		seq := int32(0)
		net.Every(5*time.Second, func() {
			seq++
			src.Send(pub, diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
			})
		})
	}
	net.Run(2 * time.Minute)
	var tb, mb bytes.Buffer
	if err := tr.ExportJSONL(&tb); err != nil {
		t.Fatalf("export: %v", err)
	}
	net.MetricsSnapshot().Write(&mb)
	return tb.Bytes(), mb.Bytes()
}

func TestPinnedFingerprintGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node grid run")
	}
	tr, m := gridRun(t)
	if got := fingerprint(tr, m); got != "47cb0bc0f2fa0195" || len(tr) != 929793 {
		t.Errorf("grid run: fingerprint %s over a %d-byte trace, pinned 47cb0bc0f2fa0195 over 929793", got, len(tr))
	}
	// The 1024-node benchmark workload, seed 1: fingerprint and sink
	// deliveries after one and two simulated minutes.
	for _, want := range []struct {
		d         time.Duration
		sha       string
		delivered int
	}{{time.Minute, "afd4fcd421af192d", 11}, {2 * time.Minute, "97968f076d1a9609", 26}} {
		cfg := experiments.DefaultParallelScale()
		cfg.Duration = want.d
		if _, n, sha := experiments.MeasureParallelScale(cfg, 1); sha != want.sha || n != want.delivered {
			t.Errorf("1024-node grid, %v: %s/%d deliveries, pinned %s/%d", want.d, sha, n, want.sha, want.delivered)
		}
	}
}
