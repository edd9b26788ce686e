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
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"diffusion"
	"diffusion/internal/experiments"
	"diffusion/internal/filters"
	"diffusion/internal/message"
)

// The counts ledger pins what the simulated workloads do, in counts: for
// each row, a fixed amount of simulated work is run and its radio frames,
// MAC messages delivered, MAC trains expired unfinished, distinct
// deliveries and wire bytes per delivery are written to one line of
// testdata/ledger.txt, with two hashes taken from t = 0: wire, over every
// frame the radio decoded, and log, over every sink delivery, and with the
// radio frames each node sent over the run, reduced to max/mean, the
// busiest node's id and Jain's fairness index, so a change that
// concentrates load shows in its own diff (paper §6.1; Raicu: the node
// that spends the most sets the network's lifetime). Those are
// exact and are compared exactly, so the rows pin the protocol itself:
// what an observer reads (traces, metrics) is not hashed and cannot move
// them. Allocations are recorded beside them, those that build the network
// and install its observers and traffic (build_allocs) apart from those
// per radio frame of the run (allocs_per_frame), so that the second is the
// steady state; each must stay within ±1 % of the line, both ways: a rise
// fails, and so does a fall that was not committed with -update. A
// change's effect on any of them is
// therefore the diff of the ledger. One row, brokerRow, counts the match
// index behind a broker's local subscriptions instead, all exactly. The
// file is !race, as the allocation budgets are: the detector allocates.
//
// Regenerate, for an intended change only, with
//
//	go test -run Ledger -update .

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.txt")

const ledgerFile = "testdata/ledger.txt"

// ledgerAllocSlack is how far allocation counts may drift from the ledger:
// a run's count varies by a few hundredths of a percent from one run to
// the next, so the line gives allocations per frame to four decimals.
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
	// path, when set, is the reinforced path at the end of the run, and
	// the row records whether the busiest sender lies on it.
	path func(*diffusion.Network) []uint32
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

// withTrace keeps every node's originations and receptions for the whole
// run (NewTrace).
func withTrace(net *diffusion.Network) { net.NewTrace(0) }

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
			// The busiest sender is off the reinforced path: relay 20
			// sends the most (303 data messages, 2.47 times the mean
			// node's frames), but ReinforcedPath follows each node's last
			// reinforced upstream, one chain, and names the branch towards
			// source 16 through 39 and 11, which carried 12 and 40. The
			// row pins the finding, so a change that moves it shows.
			path: func(net *diffusion.Network) []uint32 {
				return net.ReinforcedPath(diffusion.TestbedSink, diffusion.Attributes{
					diffusion.String(diffusion.KeyTask, diffusion.EQ, "surveillance"),
					diffusion.Int32(diffusion.KeyInterval, diffusion.IS, 6000),
				}, 0)
			},
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
		// The protocol pins, each from t = 0 with a trace kept: the
		// churned testbed of determinism_test.go untraced and with
		// flight-path tracing at 100 % and 25 % (the sampling draws come
		// from the per-node streams), a 16×16 grid, and
		// experiments.MeasureParallelScale's traffic on an 8×8 grid.
		{
			name:     "testbed_churn",
			cfg:      diffusion.NetworkConfig{Seed: 42, Topology: diffusion.TestbedTopology()},
			observe:  withTrace,
			scenario: testbedChurn,
			run:      5 * time.Minute,
		},
		{
			name:     "testbed_churn_spans100",
			cfg:      diffusion.NetworkConfig{Seed: 42, Topology: diffusion.TestbedTopology(), TraceSampling: 1},
			observe:  withTrace,
			scenario: testbedChurn,
			run:      5 * time.Minute,
		},
		{
			name:     "testbed_churn_spans25",
			cfg:      diffusion.NetworkConfig{Seed: 42, Topology: diffusion.TestbedTopology(), TraceSampling: 0.25},
			observe:  withTrace,
			scenario: testbedChurn,
			run:      5 * time.Minute,
		},
		{
			name:     "grid256",
			cfg:      diffusion.NetworkConfig{Seed: 7, Topology: diffusion.GridTopology(16, 16, 9)},
			observe:  withTrace,
			scenario: grid16,
			run:      2 * time.Minute,
		},
		{
			name:     "grid64",
			cfg:      diffusion.NetworkConfig{Seed: 3, Topology: diffusion.GridTopology(8, 8, 9)},
			observe:  withTrace,
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
	// buildMallocs count the network's construction, mallocs the run.
	buildMallocs, mallocs uint64
	// load is the radio frames each node sent over the run, reduced
	// (nodeLoad.String), and, if the work names a reinforced path, whether
	// the busiest sender lies on it.
	load string
	// metrics is the end-of-run snapshot, which no row records.
	metrics diffusion.MetricsSnapshot
}

func (c ledgerCounts) allocsPerFrame() float64 { return float64(c.mallocs) / float64(c.frames) }

func (c ledgerCounts) line(name string) string {
	return fmt.Sprintf("%s frames=%d mac_delivered=%d mac_expired=%d deliveries=%d wire_bytes_per_delivery=%.4f wire=%016x log=%016x %s build_allocs=%d allocs_per_frame=%.4f",
		name, c.frames, c.macDelivered, c.macExpired, c.deliveries, float64(c.wireBytes)/float64(c.deliveries), c.wire, c.log, c.load, c.buildMallocs, c.allocsPerFrame())
}

// nodeLoad is a count per node, in topology order.
type nodeLoad struct {
	ids   []uint32
	count []int
}

// busiest is the node that counted the most, the first in topology order
// on a tie.
func (l nodeLoad) busiest() uint32 { return l.ids[slices.Index(l.count, slices.Max(l.count))] }

// String reduces the load to max/mean, the busiest node and Jain's index,
// (Σx)² / (n·Σx²): 1 when every node sends alike, 1/n when one node sends
// everything.
func (l nodeLoad) String() string {
	sum, sq := 0.0, 0.0
	for _, c := range l.count {
		sum += float64(c)
		sq += float64(c) * float64(c)
	}
	n := float64(len(l.count))
	return fmt.Sprintf("tx_max_mean=%.4f tx_busiest=%d tx_jain=%.4f",
		float64(slices.Max(l.count))*n/sum, l.busiest(), sum*sum/(n*sq))
}

// framesSent reads every node's radio frames sent.
func framesSent(net *diffusion.Network) nodeLoad {
	var l nodeLoad
	for _, n := range net.Nodes() {
		l.ids = append(l.ids, n.ID())
		l.count = append(l.count, n.RadioStats().FramesSent)
	}
	return l
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

	runtime.GC()
	runtime.ReadMemStats(&ms)
	built := ms.Mallocs - m0
	net.Run(w.setup)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0 = ms.Mallocs
	f0, d0, b0 := net.ChannelStats().FramesSent, deliveries, net.TotalDiffusionBytes()
	md0, me0 := macStats()
	load := framesSent(net)
	net.Run(w.run)
	runtime.ReadMemStats(&ms)
	md, me := macStats()
	for i, c := range framesSent(net).count {
		load.count[i] = c - load.count[i]
	}
	loadFields := load.String()
	if w.path != nil {
		loadFields += fmt.Sprintf(" tx_busiest_on_path=%t", slices.Contains(w.path(net), load.busiest()))
	}
	return ledgerCounts{
		frames:       int(net.ChannelStats().FramesSent - f0),
		macDelivered: md - md0,
		macExpired:   me - me0,
		deliveries:   deliveries - d0,
		wireBytes:    net.TotalDiffusionBytes() - b0,
		wire:         tx.wire.Sum64(),
		log:          tx.log.Sum64(),
		buildMallocs: built,
		mallocs:      ms.Mallocs - m0,
		load:         loadFields,
		metrics:      net.MetricsSnapshot(),
	}
}

// brokerRow is experiments.RunBroker at 10⁴ local subscriptions, all
// distinct, every third with a confidence floor: what 2 000 messages cost
// the match index, in deliveries, keys with postings and candidates
// verified per message. It runs one node and no radio, so it has no
// frames to count allocations by.
func brokerRow() string {
	p := experiments.RunBroker(experiments.BrokerConfig{Sizes: []int{10000}, Msgs: 2000, RangeEvery: 3, Seed: 1})[0]
	return fmt.Sprintf("broker_10k subs=%d deliveries=%d index_keys=%d candidates_per_msg=%.4f",
		p.Subs, p.Deliveries, p.IndexKeys, p.CandPerMsg)
}

// TestCountsLedger runs every row and compares it with the pinned ledger.
func TestCountsLedger(t *testing.T) {
	works := ledgerWorks()
	got := make([]string, len(works), len(works)+1)
	counts := make([]ledgerCounts, len(works))
	for i, w := range works {
		counts[i] = runLedgerWork(w)
		got[i] = counts[i].line(w.name)
	}
	got = append(got, brokerRow())
	header := "# Counts ledger: one line per simulated workload; see ledger_test.go.\n" +
		"# build_allocs and allocs_per_frame may drift by 1 %, everything else is exact.\n" +
		"# Rewrite with -update, for an intended change only.\n"
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
	for i, line := range got {
		name, _, _ := strings.Cut(line, " ")
		exact, _, counted := strings.Cut(line, " build_allocs=")
		wantExact, wantAllocs, _ := strings.Cut(want[name], " build_allocs=")
		if exact != wantExact {
			t.Errorf("ledger moved:\n got %s\nwant %s", line, want[name])
			continue
		}
		if !counted {
			continue
		}
		var build, perFrame float64
		if _, err := fmt.Sscanf(wantAllocs, "%g allocs_per_frame=%g", &build, &perFrame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, a := range []struct {
			field       string
			got, pinned float64
		}{
			{"build_allocs", float64(counts[i].buildMallocs), build},
			{"allocs_per_frame", counts[i].allocsPerFrame(), perFrame},
		} {
			if math.Abs(a.got-a.pinned) > ledgerAllocSlack*a.pinned {
				t.Errorf("%s: %s=%.4f, ledger %g (±%.0f %%): rewrite the ledger with -update if the change is intended",
					name, a.field, a.got, a.pinned, 100*ledgerAllocSlack)
			}
		}
	}
}

// TestTranscriptIgnoresObservers holds the premise the ledger's hashes
// rest on: watching a run does not change it. On the churned testbed and
// the 1024-node grid, wire, log and the end-of-run metrics are the same
// with no observer, with a trace kept, and with a trace kept and every
// node's registry scraped mid-run.
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
			{"trace", withTrace},
			{"trace and a mid-run scrape", func(net *diffusion.Network) {
				withTrace(net)
				net.After(mid, func() { net.MetricsSnapshot() })
			}},
		} {
			w.observe = o.observe
			got := runLedgerWork(w)
			if i == 0 {
				want = got
				continue
			}
			if got.wire != want.wire || got.log != want.log {
				t.Errorf("%s, %s: wire=%016x log=%016x, with no observer wire=%016x log=%016x",
					w.name, o.name, got.wire, got.log, want.wire, want.log)
			}
			if moved := metricsMoved(got.metrics, want.metrics); len(moved) > 0 {
				t.Errorf("%s, %s: metrics differ from the unobserved run's: %s",
					w.name, o.name, strings.Join(moved, ", "))
			}
		}
	}
}

// metricsMoved names the series whose value differs between a and b in any
// scope, sorted.
func metricsMoved(a, b diffusion.MetricsSnapshot) []string {
	moved := map[string]bool{}
	diff := func(x, y map[string]float64) {
		for name, v := range x {
			if u, ok := y[name]; !ok || u != v && !(math.IsNaN(u) && math.IsNaN(v)) {
				moved[name] = true
			}
		}
		for name := range y {
			if _, ok := x[name]; !ok {
				moved[name] = true
			}
		}
	}
	for scope, m := range a.Scopes {
		diff(m, b.Scopes[scope])
	}
	for scope, m := range b.Scopes {
		if _, ok := a.Scopes[scope]; !ok {
			diff(nil, m)
		}
	}
	diff(a.Totals, b.Totals)
	names := make([]string, 0, len(moved))
	for name := range moved {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
