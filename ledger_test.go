//go:build !race

package diffusion_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"diffusion"
	"diffusion/internal/filters"
)

// The counts ledger pins what the simulated workloads cost, in counts: for
// each row, a fixed amount of simulated work is run and its radio frames,
// MAC messages delivered, MAC trains expired unfinished, distinct
// deliveries and wire bytes per delivery are written to one line of testdata/ledger.txt. Those are exact and are
// compared exactly. Allocations per radio frame are recorded beside them
// and must stay within ±1 % of the line, both ways: a rise fails, and so
// does a fall that was not committed with -update. A change's effect on any
// of them is therefore the diff of the ledger. The file is !race, as the
// allocation budgets are: the detector allocates.
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

// ledgerWork is one simulated workload: sources publish every interval
// towards the sinks' interest, the network is set up for setup and then
// measured for run.
type ledgerWork struct {
	name        string
	topology    *diffusion.Topology
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
	// setup is simulated before counting starts, run while counting.
	setup, run time.Duration
}

func ledgerWorks() []ledgerWork {
	const side = 32
	n := uint32(side * side)
	return []ledgerWork{
		{
			// The paper's Fig. 8 point: four sources, one sink, suppression
			// on, one 30-minute run of one seed, network construction and
			// all, as cmd/diffbench's testbed_fig8 counts each of its seeds.
			name:     "testbed_fig8",
			topology: diffusion.TestbedTopology(),
			sinks:    []uint32{diffusion.TestbedSink},
			sources:  diffusion.TestbedSources(),
			interest: diffusion.Attributes{
				diffusion.String(diffusion.KeyTask, diffusion.EQ, "surveillance"),
				diffusion.Int32(diffusion.KeyInterval, diffusion.IS, 6000),
			},
			publication: diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.IS, "surveillance")},
			interval:    6 * time.Second,
			payload:     50,
			syncSeq:     true,
			suppression: true,
			run:         30 * time.Minute,
		},
		{
			// cmd/diffbench's grid1024_sim: corner sinks, sources at the edge
			// midpoints and the centre, five simulated minutes after the
			// three-period set-up: long enough for over 100 deliveries.
			name:        "grid1024_sim",
			topology:    diffusion.GridTopology(side, side, 9),
			sinks:       []uint32{1, side, n - side + 1, n},
			sources:     []uint32{side/2 + 1, side*(side/2) + 1, side*(side/2) + side, side*(side-1) + side/2, side*(side/2) + side/2},
			interest:    diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.EQ, "wide-area")},
			publication: diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.IS, "wide-area")},
			interval:    5 * time.Second,
			setup:       3 * 5 * time.Second,
			run:         5 * time.Minute,
		},
	}
}

// ledgerCounts is one row of the ledger, counted over the row's run.
type ledgerCounts struct {
	frames, macDelivered, macExpired, deliveries, wireBytes int
	mallocs                                                 uint64
}

func (c ledgerCounts) allocsPerFrame() float64 { return float64(c.mallocs) / float64(c.frames) }

func (c ledgerCounts) line(name string) string {
	return fmt.Sprintf("%s frames=%d mac_delivered=%d mac_expired=%d deliveries=%d wire_bytes_per_delivery=%.4f allocs_per_frame=%.2f",
		name, c.frames, c.macDelivered, c.macExpired, c.deliveries, float64(c.wireBytes)/float64(c.deliveries), c.allocsPerFrame())
}

// runLedgerWork runs w on seed 1 and counts it.
func runLedgerWork(w ledgerWork) ledgerCounts {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs

	net := diffusion.NewNetwork(diffusion.NetworkConfig{Seed: 1, Topology: w.topology})
	if w.suppression {
		for _, id := range net.IDs() {
			filters.NewSuppression(net.Node(id).Node, net.NodeEnv(id), filters.SuppressionOptions{})
		}
	}
	deliveries := 0
	for _, id := range w.sinks {
		first := map[int32]bool{}
		net.Node(id).Subscribe(w.interest, func(m *diffusion.Message) {
			if a, ok := m.Attrs.FindActual(diffusion.KeySequence); ok && !first[a.Val.Int32()] {
				first[a.Val.Int32()] = true
				deliveries++
			}
		})
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
	header := "# Counts ledger: one line per simulated workload, seed 1; see ledger_test.go.\n" +
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
