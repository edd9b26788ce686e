//go:build !race

package diffusion_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"diffusion"
	"diffusion/internal/filters"
	"diffusion/internal/message"
)

// The counts ledger pins what the simulated workloads do, in counts: for
// each row, a fixed amount of simulated work is run and its radio frames,
// MAC messages delivered, MAC trains expired unfinished, distinct
// deliveries and wire bytes per delivery are written to one line of
// testdata/ledger.txt, with two hashes taken from t = 0: wire, over every
// frame the radio decoded, and log, over every sink delivery. Those are
// exact and are compared exactly, so the rows pin the protocol itself:
// what an observer reads (traces, metrics) is not hashed and cannot move
// them. Allocations per radio frame are recorded beside them and must stay
// within ±1 % of the line, both ways: a rise fails, and so does a fall that
// was not committed with -update. A change's effect on any of them is
// therefore the diff of the ledger. The file is !race, as the allocation
// budgets are: the detector allocates.
//
// Regenerate, for an intended change only, with
//
//	go test -run Ledger -update .

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.txt")

const ledgerFile = "testdata/ledger.txt"

// ledgerAllocSlack is how far allocations per frame may drift from the
// ledger: a run's count varies by a few hundredths of a percent from one
// run to the next, so the line rounds it to two decimals.
const ledgerAllocSlack = 0.01

// ledgerWork is one simulated workload: a network built from cfg, on which
// observe (when set) installs its observers and then scenario its traffic,
// is simulated for setup and then counted for run.
type ledgerWork struct {
	name       string
	cfg        diffusion.NetworkConfig
	observe    func(*diffusion.Network)
	scenario   func(net *diffusion.Network, sink func(id uint32) diffusion.DataCallback)
	setup, run time.Duration
}

// reporting is a workload in which sources publish every interval towards
// the sinks' interest.
type reporting struct {
	sinks       []uint32
	sources     []uint32
	interest    diffusion.Attributes
	publication diffusion.Attributes
	interval    time.Duration
	payload     int
	// syncSeq: every source reports the same sequence numbers, the paper's
	// Fig. 8 set-up in which every source sees one event.
	syncSeq     bool
	suppression bool
}

func (w reporting) install(net *diffusion.Network, sink func(id uint32) diffusion.DataCallback) {
	if w.suppression {
		for _, id := range net.IDs() {
			filters.NewSuppression(net.Node(id).Node, net.NodeEnv(id), filters.SuppressionOptions{})
		}
	}
	for _, id := range w.sinks {
		net.Node(id).Subscribe(w.interest, sink(id))
	}
	srcs := make([]*diffusion.Node, len(w.sources))
	pubs := make([]diffusion.PublicationHandle, len(w.sources))
	for i, id := range w.sources {
		srcs[i] = net.Node(id)
		pubs[i] = srcs[i].Publish(w.publication)
	}
	payload := make([]byte, w.payload)
	round := int32(0)
	net.Every(w.interval, func() {
		round++
		for i, src := range srcs {
			seq := round
			if !w.syncSeq {
				seq += int32(i) << 20
			}
			extra := diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq)}
			if w.payload > 0 {
				extra = append(extra, diffusion.Blob(diffusion.KeyPayload, diffusion.IS, payload))
			}
			src.Send(pubs[i], extra)
		}
	})
}

// cornerSinks is experiments.MeasureParallelScale's traffic on a side×side
// grid: four corner sinks, and sources at the edge midpoints and the
// centre, each reporting every 5 s.
func cornerSinks(side uint32) func(*diffusion.Network, func(uint32) diffusion.DataCallback) {
	return func(net *diffusion.Network, sink func(id uint32) diffusion.DataCallback) {
		n := side * side
		interest := diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.EQ, "wide-area")}
		publication := diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.IS, "wide-area")}
		for _, id := range []uint32{1, side, n - side + 1, n} {
			net.Node(id).Subscribe(interest, sink(id))
		}
		reportEach(net, []uint32{side/2 + 1, side*(side/2) + 1, side*(side/2) + side, side*(side-1) + side/2, side*(side/2) + side/2},
			publication, 5*time.Second)
	}
}

// grid16 is a 16×16 grid's traffic: sources 16, 241 and 256, in three
// corners, report to sink 1 in the fourth every 5 s.
func grid16(net *diffusion.Network, sink func(id uint32) diffusion.DataCallback) {
	interest, publication := surveillance()
	net.Node(1).Subscribe(interest, sink(1))
	reportEach(net, []uint32{16, 241, 256}, publication, 5*time.Second)
}

// traceTap installs NewTrace's filter tap on every node.
func traceTap(net *diffusion.Network) { net.NewTrace(0) }

func ledgerWorks() []ledgerWork {
	const side = 32
	n := uint32(side * side)
	return []ledgerWork{
		{
			// The paper's Fig. 8 point: four sources, one sink, suppression
			// on, one 30-minute run of one seed, network construction and
			// all, as cmd/diffbench's testbed_fig8 counts each of its seeds.
			name: "testbed_fig8",
			cfg:  diffusion.NetworkConfig{Seed: 1, Topology: diffusion.TestbedTopology()},
			scenario: reporting{
				sinks:   []uint32{diffusion.TestbedSink},
				sources: diffusion.TestbedSources(),
				interest: diffusion.Attributes{
					diffusion.String(diffusion.KeyTask, diffusion.EQ, "surveillance"),
					diffusion.Int32(diffusion.KeyInterval, diffusion.IS, 6000),
				},
				publication: diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.IS, "surveillance")},
				interval:    6 * time.Second,
				payload:     50,
				syncSeq:     true,
				suppression: true,
			}.install,
			run: 30 * time.Minute,
		},
		{
			// cmd/diffbench's grid1024_sim: corner sinks, sources at the edge
			// midpoints and the centre, five simulated minutes after the
			// three-period set-up: long enough for over 100 deliveries.
			name: "grid1024_sim",
			cfg:  diffusion.NetworkConfig{Seed: 1, Topology: diffusion.GridTopology(side, side, 9)},
			scenario: reporting{
				sinks:       []uint32{1, side, n - side + 1, n},
				sources:     []uint32{side/2 + 1, side*(side/2) + 1, side*(side/2) + side, side*(side-1) + side/2, side*(side/2) + side/2},
				interest:    diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.EQ, "wide-area")},
				publication: diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.IS, "wide-area")},
				interval:    5 * time.Second,
			}.install,
			setup: 3 * 5 * time.Second,
			run:   5 * time.Minute,
		},
		// The protocol pins, each from t = 0 with the trace tap on: the
		// churned testbed of determinism_test.go untraced and with
		// flight-path tracing at 100 % and 25 % (the sampling draws come
		// from the per-node streams), a 16×16 grid, and
		// experiments.MeasureParallelScale's traffic on an 8×8 grid.
		{
			name:     "testbed_churn",
			cfg:      diffusion.NetworkConfig{Seed: 42, Topology: diffusion.TestbedTopology()},
			observe:  traceTap,
			scenario: testbedChurn,
			run:      5 * time.Minute,
		},
		{
			name:     "testbed_churn_spans100",
			cfg:      diffusion.NetworkConfig{Seed: 42, Topology: diffusion.TestbedTopology(), TraceSampling: 1},
			observe:  traceTap,
			scenario: testbedChurn,
			run:      5 * time.Minute,
		},
		{
			name:     "testbed_churn_spans25",
			cfg:      diffusion.NetworkConfig{Seed: 42, Topology: diffusion.TestbedTopology(), TraceSampling: 0.25},
			observe:  traceTap,
			scenario: testbedChurn,
			run:      5 * time.Minute,
		},
		{
			name:     "grid256",
			cfg:      diffusion.NetworkConfig{Seed: 7, Topology: diffusion.GridTopology(16, 16, 9)},
			observe:  traceTap,
			scenario: grid16,
			run:      2 * time.Minute,
		},
		{
			name:     "grid64",
			cfg:      diffusion.NetworkConfig{Seed: 3, Topology: diffusion.GridTopology(8, 8, 9)},
			observe:  traceTap,
			scenario: cornerSinks(8),
			run:      45 * time.Second,
		},
	}
}

// ledgerCounts is one row of the ledger, counted over the row's run; wire
// and log are hashed from t = 0.
type ledgerCounts struct {
	frames, macDelivered, macExpired, deliveries, wireBytes int
	wire, log                                               uint64
	mallocs                                                 uint64
}

func (c ledgerCounts) allocsPerFrame() float64 { return float64(c.mallocs) / float64(c.frames) }

func (c ledgerCounts) line(name string) string {
	return fmt.Sprintf("%s frames=%d mac_delivered=%d mac_expired=%d deliveries=%d wire_bytes_per_delivery=%.4f wire=%016x log=%016x allocs_per_frame=%.2f",
		name, c.frames, c.macDelivered, c.macExpired, c.deliveries, float64(c.wireBytes)/float64(c.deliveries), c.wire, c.log, c.allocsPerFrame())
}

// transcript hashes a run as it crosses the air, FNV-1a 64 from t = 0:
// wire over every decoded radio frame (time, sender, receiver, length,
// bytes), log over every sink delivery (time, sink, message ID).
type transcript struct {
	wire, log hash.Hash64
	buf       []byte
}

func newTranscript() *transcript { return &transcript{wire: fnv.New64a(), log: fnv.New64a()} }

func (t *transcript) frame(at time.Duration, from, to uint32, data []byte) {
	b := binary.BigEndian.AppendUint64(t.buf[:0], uint64(at))
	b = binary.BigEndian.AppendUint32(b, from)
	b = binary.BigEndian.AppendUint32(b, to)
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	t.buf = append(b, data...)
	t.wire.Write(t.buf)
}

func (t *transcript) delivery(at time.Duration, sink uint32, id message.ID) {
	b := binary.BigEndian.AppendUint64(t.buf[:0], uint64(at))
	b = binary.BigEndian.AppendUint32(b, sink)
	b = binary.BigEndian.AppendUint32(b, id.RandID)
	t.buf = binary.BigEndian.AppendUint32(b, id.PktNum)
	t.log.Write(t.buf)
}

// runLedgerWork runs w and counts it. A delivery counts once per sink and
// sequence number.
func runLedgerWork(w ledgerWork) ledgerCounts {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs

	net := diffusion.NewNetwork(w.cfg)
	tx := newTranscript()
	net.OnDecode(tx.frame)
	if w.observe != nil {
		w.observe(net)
	}
	deliveries := 0
	w.scenario(net, func(id uint32) diffusion.DataCallback {
		first := map[int32]bool{}
		return func(m *diffusion.Message) {
			tx.delivery(net.Now(), id, m.ID)
			if a, ok := m.Attrs.FindActual(diffusion.KeySequence); ok && !first[a.Val.Int32()] {
				first[a.Val.Int32()] = true
				deliveries++
			}
		}
	})
	macStats := func() (delivered, expired int) {
		for _, n := range net.Nodes() {
			delivered += n.MAC.Stats.MessagesDelivered
			expired += n.MAC.Stats.ReassemblyExpired
		}
		return delivered, expired
	}

	net.Run(w.setup)
	if w.setup > 0 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 = ms.Mallocs
	}
	f0, d0, b0 := net.ChannelStats().FramesSent, deliveries, net.TotalDiffusionBytes()
	md0, me0 := macStats()
	net.Run(w.run)
	runtime.ReadMemStats(&ms)
	md, me := macStats()
	return ledgerCounts{
		frames:       int(net.ChannelStats().FramesSent - f0),
		macDelivered: md - md0,
		macExpired:   me - me0,
		deliveries:   deliveries - d0,
		wireBytes:    net.TotalDiffusionBytes() - b0,
		wire:         tx.wire.Sum64(),
		log:          tx.log.Sum64(),
		mallocs:      ms.Mallocs - m0,
	}
}

// TestCountsLedger runs every row and compares it with the pinned ledger.
func TestCountsLedger(t *testing.T) {
	works := ledgerWorks()
	got := make([]string, len(works))
	counts := make([]ledgerCounts, len(works))
	for i, w := range works {
		counts[i] = runLedgerWork(w)
		got[i] = counts[i].line(w.name)
	}
	header := "# Counts ledger: one line per simulated workload; see ledger_test.go.\n" +
		"# allocs_per_frame may drift by 1 %, everything else is exact. Rewrite with -update,\n" +
		"# for an intended change only.\n"
	if *updateLedger {
		if err := os.WriteFile(ledgerFile, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = line
		}
	}
	for i, w := range works {
		exact, _, _ := strings.Cut(got[i], " allocs_per_frame=")
		wantExact, wantAllocs, ok := strings.Cut(want[w.name], " allocs_per_frame=")
		if !ok || exact != wantExact {
			t.Errorf("ledger moved:\n got %s\nwant %s", got[i], want[w.name])
			continue
		}
		pinned, err := strconv.ParseFloat(wantAllocs, 64)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if a := counts[i].allocsPerFrame(); math.Abs(a-pinned) > ledgerAllocSlack*pinned {
			t.Errorf("%s: %.4f allocations per frame, ledger %.2f (±%.0f %%): rewrite the ledger with -update if the change is intended",
				w.name, a, pinned, 100*ledgerAllocSlack)
		}
	}
}

// TestTranscriptIgnoresObservers holds the premise the ledger's hashes
// rest on: watching a run does not change it. On the churned testbed and
// the 1024-node grid, wire and log hash the same with no observer, with
// NewTrace's filter tap, and with the tap and every node's registry
// scraped mid-run.
func TestTranscriptIgnoresObservers(t *testing.T) {
	for _, w := range ledgerWorks() {
		if w.name != "testbed_churn" && w.name != "grid1024_sim" {
			continue
		}
		mid := w.setup + w.run/2
		var want ledgerCounts
		for i, o := range []struct {
			name    string
			observe func(*diffusion.Network)
		}{
			{"no observer", nil},
			{"trace tap", traceTap},
			{"trace tap and a mid-run scrape", func(net *diffusion.Network) {
				traceTap(net)
				net.After(mid, func() { net.MetricsSnapshot() })
			}},
		} {
			w.observe = o.observe
			got := runLedgerWork(w)
			if i == 0 {
				want = got
			} else if got.wire != want.wire || got.log != want.log {
				t.Errorf("%s, %s: wire=%016x log=%016x, with no observer wire=%016x log=%016x",
					w.name, o.name, got.wire, got.log, want.wire, want.log)
			}
		}
	}
}
