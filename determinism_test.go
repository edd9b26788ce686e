package diffusion_test

import (
	"bytes"
	"testing"
	"time"

	"diffusion"
)

// The engine's contract: a run is a pure function of its seed. These tests
// assert it end to end, on the full protocol stack, over the exported JSONL
// trace and the metrics snapshot, between two runs of one build. Across
// builds the protocol is pinned by what crosses the air: the counts ledger
// (ledger_test.go) hashes these runs as its testbed_churn rows.

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
	testbedChurn(net, func(uint32) diffusion.DataCallback { return func(*diffusion.Message) {} })
	net.Run(5 * time.Minute)
	var tb, mb bytes.Buffer
	if err := tr.ExportJSONL(&tb); err != nil {
		t.Fatalf("export: %v", err)
	}
	net.MetricsSnapshot().Write(&mb)
	return tb.Bytes(), mb.Bytes()
}

// testbedChurn loads the testbed: four sources report to the sink every
// 2 s over the lossy default channel, while nodes 20, 21 and 24 crash and
// recover from 30 s to 4 min. sink(id) is the sink's delivery callback.
func testbedChurn(net *diffusion.Network, sink func(id uint32) diffusion.DataCallback) {
	interest, publication := surveillance()
	net.Node(diffusion.TestbedSink).Subscribe(interest, sink(diffusion.TestbedSink))
	reportEach(net, diffusion.TestbedSources(), publication, 2*time.Second)
	inj := net.NewFaultInjector()
	inj.Churn(diffusion.ChurnConfig{
		Start: 30 * time.Second,
		Stop:  4 * time.Minute,
		MTBF:  time.Minute,
		MTTR:  20 * time.Second,
		Nodes: []uint32{20, 21, 24},
	})
}

// reportEach has each source, in order, publish publication and then send
// its own sequence number, counting from 1, every period.
func reportEach(net *diffusion.Network, sources []uint32, publication diffusion.Attributes, period time.Duration) {
	for _, id := range sources {
		src := net.Node(id)
		pub := src.Publish(publication)
		seq := int32(0)
		net.Every(period, func() {
			seq++
			src.Send(pub, diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
			})
		})
	}
}

func TestSameSeedIdenticalTraceHash(t *testing.T) {
	t1, m1 := detRun(t, 42)
	t2, m2 := detRun(t, 42)
	if !bytes.Equal(t1, t2) {
		t.Error("same seed produced different traces")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("same seed produced different metrics snapshots")
	}
	t3, _ := detRun(t, 43)
	if bytes.Equal(t1, t3) {
		t.Error("different seeds produced identical traces")
	}
}

// TestTraceSamplingExportsSpans checks that a run sampled at 100 % exports
// its flight-path spans, and that tracing off stays byte-identical to the
// untraced run.
func TestTraceSamplingExportsSpans(t *testing.T) {
	tr, _ := detRunSampled(t, 42, 1.0)
	if !bytes.Contains(tr, []byte(`"flow":`)) {
		t.Fatal("sampled run exported no flight-path spans")
	}
	off, _ := detRunSampled(t, 42, 0)
	base, _ := detRun(t, 42)
	if !bytes.Equal(off, base) {
		t.Error("sampling=0 run differs from untraced run")
	}
}
