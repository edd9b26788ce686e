//go:build !race

package transport

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// The discovery ledger pins what mesh bootstrap costs, in counts: for each
// cell of mesh size × degree cap, the seeds of sn.mesh's bootstrap (one
// seed address, everyone else knowing only it) are run in virtual time
// and summed into one line of testdata/discovery_ledger.txt. A change to
// any discovery rule moves the ledger, and its diff is the measurement.
// The file is !race: the detector multiplies the cost and adds nothing to
// a single-goroutine virtual-time run.
//
// Regenerate, for an intended change only, with
//
//	go test ./internal/transport/ -run Ledger -update

var updateLedger = flag.Bool("update", false, "rewrite testdata/discovery_ledger.txt")

const (
	ledgerFile     = "testdata/discovery_ledger.txt"
	ledgerInterval = 100 * time.Millisecond
	ledgerTail     = 20  // rounds a run goes on after convergence
	ledgerRounds   = 100 // rounds after which a run that never converged stops
)

// ledgerCell is one mesh size and degree cap, run over seeds 0..seeds-1.
type ledgerCell struct{ n, cap, seeds int }

func (c ledgerCell) key() string { return fmt.Sprintf("n=%d cap=%d", c.n, c.cap) }

func ledgerCells() []ledgerCell {
	var cells []ledgerCell
	for _, n := range []int{10, 30, 100} {
		for _, cap := range []int{3, 8} {
			cells = append(cells, ledgerCell{n, cap, 20})
		}
	}
	if !testing.Short() {
		cells = append(cells, ledgerCell{1000, 8, 2})
	}
	return cells
}

// ledgerRun is one seed's bootstrap. The mesh has converged once every
// node holds a mutual link and the mutual links connect all n nodes; the
// run goes on ledgerTail rounds more, to count the churn that follows.
type ledgerRun struct {
	converged     bool
	rounds        int    // rounds to converge (ledgerRounds if it never did)
	datagrams     int    // datagrams on the wire until then
	demotions     uint64 // over the whole run
	postDemotions uint64 // in the ledgerTail rounds after convergence
	evictions     uint64 // over the whole run
	maxDegree     int    // largest neighbor table seen at a round's end
	wire          uint64 // FNV-1a over every datagram of the run
}

func runLedgerSeed(t testing.TB, c ledgerCell, seed int64) ledgerRun {
	sn := newSimNet(t)
	nodes := sn.seededMesh(c.n, c.cap, ledgerInterval, seed)
	demotions := func() (sum uint64) {
		for _, u := range nodes {
			sum += u.Stats().MemberDemotions.Load()
		}
		return sum
	}
	h := fnv.New64a()
	var r ledgerRun
	var atConverge uint64
	for round := 1; round <= ledgerRounds && (!r.converged || round <= r.rounds+ledgerTail); round++ {
		sn.run(ledgerInterval)
		for _, d := range sn.wire {
			h.Write(d.to.Addr().AsSlice())
			h.Write(d.b)
		}
		clear(sn.wire)
		sn.wire = sn.wire[:0]
		ok, degree := meshConverged(nodes)
		r.maxDegree = max(r.maxDegree, degree)
		if ok && !r.converged {
			r.converged, r.rounds, r.datagrams = true, round, sn.frames
			atConverge = demotions()
		}
	}
	if !r.converged {
		r.rounds, r.datagrams = ledgerRounds, sn.frames
		atConverge = demotions()
	}
	r.demotions = demotions()
	r.postDemotions = r.demotions - atConverge
	for _, u := range nodes {
		r.evictions += u.Stats().MemberEvictions.Load()
	}
	r.wire = h.Sum64()
	return r
}

// meshConverged reports whether every node holds a mutual link and the
// mutual links connect the mesh, and the largest table. It reads each
// neighbor table once: a round's check costs n·cap, not the record table.
func meshConverged(nodes []*UDP) (converged bool, maxDegree int) {
	tables := make([][]uint32, len(nodes))
	for i, u := range nodes {
		tables[i] = neighborIDs(u)
		maxDegree = max(maxDegree, len(tables[i]))
	}
	// Union-find over mutual links; node IDs are 1..n.
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	components := len(nodes)
	for i, table := range tables {
		linked := false
		for _, p := range table {
			j := int(p) - 1
			if _, ok := slices.BinarySearch(tables[j], uint32(i+1)); !ok {
				continue
			}
			linked = true
			if a, b := find(i), find(j); a != b {
				parent[a] = b
				components--
			}
		}
		if !linked {
			return false, maxDegree
		}
	}
	return components == 1, maxDegree
}

// ledgerLine sums a cell's runs into its ledger line. An unconverged seed
// contributes the whole run's datagrams and rounds.
func ledgerLine(c ledgerCell, runs []ledgerRun) string {
	var unconverged, datagrams, rounds, maxDegree int
	var demotions, post, evictions uint64
	h := fnv.New64a()
	for _, r := range runs {
		if !r.converged {
			unconverged++
		}
		datagrams += r.datagrams
		rounds += r.rounds
		demotions += r.demotions
		post += r.postDemotions
		evictions += r.evictions
		maxDegree = max(maxDegree, r.maxDegree)
		fmt.Fprintf(h, "%016x", r.wire)
	}
	return fmt.Sprintf("%s seeds=%d unconverged=%d datagrams=%d rounds=%d demotions=%d post_demotions=%d evictions=%d max_degree=%d wire=%016x",
		c.key(), c.seeds, unconverged, datagrams, rounds, demotions, post, evictions, maxDegree, h.Sum64())
}

// TestDiscoveryLedger runs every cell and compares its line with the
// pinned ledger. Independent of the pin, no table may exceed its cap.
func TestDiscoveryLedger(t *testing.T) {
	if *updateLedger && testing.Short() {
		t.Fatal("-update rewrites every cell; run it without -short")
	}
	cells := ledgerCells()
	runs := make([][]ledgerRun, len(cells))
	type job struct{ cell, seed int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), 4) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				runs[j.cell][j.seed] = runLedgerSeed(t, cells[j.cell], int64(j.seed))
			}
		}()
	}
	// Largest cells first, so the pool does not end on one long run.
	for ci := len(cells) - 1; ci >= 0; ci-- {
		runs[ci] = make([]ledgerRun, cells[ci].seeds)
		for s := range cells[ci].seeds {
			jobs <- job{ci, s}
		}
	}
	close(jobs)
	wg.Wait()

	got := make([]string, len(cells))
	for i, c := range cells {
		got[i] = ledgerLine(c, runs[i])
		for s, r := range runs[i] {
			if r.maxDegree > c.cap {
				t.Errorf("%s seed %d: degree %d over the cap", c.key(), s, r.maxDegree)
			}
		}
	}
	header := "# Discovery convergence ledger: one line per mesh size and degree cap, summed over\n" +
		"# seeds; see discovery_ledger_test.go. Rewrite with -update, for an intended change only.\n"
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
			key, _, _ := strings.Cut(line, " seeds=")
			want[key] = line
		}
	}
	for i, c := range cells {
		if got[i] != want[c.key()] {
			t.Errorf("ledger moved:\n got %s\nwant %s", got[i], want[c.key()])
		}
	}
}
