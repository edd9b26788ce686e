// Command difftrace analyzes the structured JSONL traces the simulator
// exports (Trace.ExportJSONL, diffsim -trace-out) and the span rings of
// live nodes (diffnode's GET /spans). The paper's section 7 asks for
// exactly this kind of tooling: "we were repeatedly challenged by the
// difficulty in understanding what was going on in a network of dozens of
// physically distributed nodes". A trace is a complete, deterministic
// account of a run; difftrace turns it into answers.
//
// Usage:
//
//	difftrace info trace.jsonl                  # run header, counts, fault script
//	difftrace budget trace.jsonl                # message budget by class, control vs data
//	difftrace flows [-top N] [-id ID] trace.jsonl   # per-flow hop-by-hop latency
//	difftrace gradients -node N trace.jsonl     # gradient-table timeline for one node
//	difftrace paths [-flow F] trace.jsonl       # causal flight paths and drop verdicts (needs TraceSampling > 0)
//	difftrace latency trace.jsonl               # per-hop and end-to-end latency percentiles
//	difftrace diff a.jsonl b.jsonl              # where two runs diverge
//	difftrace chrome [-o out.json] trace.jsonl  # convert for chrome://tracing
//
// An input is a trace file or a node's control-plane address
// (http://host:port), whose GET /spans body is read. Several inputs, or
// any address, are merged onto one wall-clock timeline. With -walk, given
// before the subcommand, the inputs are entry points: difftrace walks
// GET /neighbors breadth-first and reads every node it finds, so
// `difftrace -walk paths http://host:port` follows flows across a whole
// live mesh and `difftrace -walk info ...` prints its membership census.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"diffusion/internal/flightpath"
	"diffusion/internal/telemetry"
)

const usage = "usage: difftrace [-walk] <info|budget|flows|gradients|paths|latency|diff|chrome> [flags] trace.jsonl|http://host:port ..."

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "difftrace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("difftrace", flag.ContinueOnError)
	walk := fs.Bool("walk", false, "treat the inputs as entry points: walk GET /neighbors and read every node found")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return errors.New(usage)
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "info":
		t, err := readTrace(rest, *walk)
		if err != nil {
			return err
		}
		infoReport(w, t)
	case "budget":
		t, err := readTrace(rest, *walk)
		if err != nil {
			return err
		}
		budgetReport(w, t.info, t.recs)
	case "flows":
		fs := flag.NewFlagSet("flows", flag.ContinueOnError)
		top := fs.Int("top", 0, "also list the N slowest flows")
		id := fs.String("id", "", "print one flow's hop-by-hop record")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		t, err := readTrace(fs.Args(), *walk)
		if err != nil {
			return err
		}
		if *id != "" {
			return flowDetail(w, t.recs, *id)
		}
		flowsReport(w, t.recs, *top)
	case "gradients":
		fs := flag.NewFlagSet("gradients", flag.ContinueOnError)
		node := fs.Uint("node", 0, "node whose gradient table to reconstruct")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		t, err := readTrace(fs.Args(), *walk)
		if err != nil {
			return err
		}
		return gradientReport(w, t.info, t.recs, uint32(*node))
	case "paths":
		fs := flag.NewFlagSet("paths", flag.ContinueOnError)
		flowHex := fs.String("flow", "", "print one flow's full event timeline (hex flow ID as listed)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		flowID, err := flightpath.ParseFlowID(*flowHex)
		if err != nil {
			return err
		}
		t, err := readTrace(fs.Args(), *walk)
		if err != nil {
			return err
		}
		flows := flightpath.Assemble(t.recs)
		switch {
		case len(flows) == 0:
			noSpans(w, t)
		case flowID != 0:
			return flightpath.WriteTimeline(w, flows, flowID)
		default:
			flightpath.WritePaths(w, flows)
		}
	case "latency":
		t, err := readTrace(rest, *walk)
		if err != nil {
			return err
		}
		if flows := flightpath.Assemble(t.recs); len(flows) == 0 {
			noSpans(w, t)
		} else {
			fmt.Fprintf(w, "latency over %d sampled flows:\n", len(flows))
			flightpath.WriteLatencies(w, flows)
		}
	case "diff":
		if len(rest) != 2 {
			return errors.New("usage: difftrace diff a.jsonl b.jsonl")
		}
		a, err := readTrace(rest[:1], *walk)
		if err != nil {
			return err
		}
		b, err := readTrace(rest[1:], *walk)
		if err != nil {
			return err
		}
		diffReport(w, rest[0], rest[1], a.info, b.info, a.recs, b.recs)
	case "chrome":
		fs := flag.NewFlagSet("chrome", flag.ContinueOnError)
		out := fs.String("o", "", "output file (default stdout)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		t, err := readTrace(fs.Args(), *walk)
		if err != nil {
			return err
		}
		dst := w
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			dst = f
		}
		return telemetry.WriteChromeTrace(dst, t.info, t.recs)
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", cmd, usage)
	}
	return nil
}

// liveScrape is the topology of a merged trace.
const liveScrape = "live-scrape"

// trace is what the inputs hold: one file as written, or every input
// merged.
type trace struct {
	info    telemetry.RunInfo
	recs    []telemetry.Record
	sources []source   // the merged inputs, in argument order
	walked  []meshNode // the -walk census
}

// source is one merged input and what it contributed.
type source struct {
	name       string
	node, boot uint32
	spans      int
}

// readTrace is difftrace's one loader. A single file reads as written.
// Several inputs, or any http:// address, are merged: each input's
// records are rebased by its run info's StartUnixUS (a node's ring clock
// base; 0 in a simulator trace), the earliest record becomes time zero,
// and records are stably time-ordered, so ties keep argument order. With
// walk the inputs are entry points, and every node the walk finds is
// read; one that fails is skipped with a notice on stderr (its tracing
// may be off, or it died after the census).
func readTrace(inputs []string, walk bool) (*trace, error) {
	if len(inputs) == 0 {
		return nil, errors.New("expected a trace file or node address\n" + usage)
	}
	t := &trace{}
	if walk {
		nodes, err := walkMesh(os.Stderr, client, inputs)
		if err != nil {
			return nil, err
		}
		t.walked, inputs = nodes, nil
		for _, n := range nodes {
			inputs = append(inputs, "http://"+n.Addr)
		}
	}
	if len(inputs) == 1 && !isAddr(inputs[0]) {
		info, recs, err := readInput(inputs[0])
		t.info, t.recs = info, recs
		return t, err
	}
	var rates [3]string // the inputs' protocol rates, kept while they agree
	for _, in := range inputs {
		info, recs, err := readInput(in)
		if err != nil {
			if !walk {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "difftrace: skipping %s: %v\n", in, err)
			continue
		}
		for i := range recs {
			recs[i].US += info.StartUnixUS
		}
		if r := [3]string{info.InterestInterval, info.GradientLifetime, info.ExploratoryInterval}; len(t.sources) == 0 || r == rates {
			rates = r
		} else {
			rates = [3]string{}
		}
		t.sources = append(t.sources, source{in, info.Node, info.Boot, len(recs)})
		t.recs = append(t.recs, recs...)
	}
	t.info = telemetry.RunInfo{Topology: liveScrape, Nodes: len(t.sources),
		InterestInterval: rates[0], GradientLifetime: rates[1], ExploratoryInterval: rates[2]}
	if len(t.recs) > 0 {
		base := t.recs[0].US
		for _, r := range t.recs {
			base = min(base, r.US)
		}
		for i := range t.recs {
			t.recs[i].US -= base
		}
		sort.SliceStable(t.recs, func(i, j int) bool { return t.recs[i].US < t.recs[j].US })
	}
	return t, nil
}

// isAddr reports whether an input names a node rather than a file.
func isAddr(in string) bool { return strings.HasPrefix(in, "http://") }

// readInput reads one input: a trace file, or a node's GET /spans body.
func readInput(in string) (telemetry.RunInfo, []telemetry.Record, error) {
	if !isAddr(in) {
		f, err := os.Open(in)
		if err != nil {
			return telemetry.RunInfo{}, nil, err
		}
		defer f.Close()
		return telemetry.ReadJSONL(f)
	}
	body, err := get(client, in, "/spans")
	if err != nil {
		return telemetry.RunInfo{}, nil, fmt.Errorf("%s: %w", in, err)
	}
	info, recs, err := telemetry.ReadJSONL(bytes.NewReader(body))
	if err != nil {
		return telemetry.RunInfo{}, nil, fmt.Errorf("%s: GET /spans: %w", in, err)
	}
	return info, recs, nil
}

// noSpans reports a trace without flight-path spans, and how to get them.
func noSpans(w io.Writer, t *trace) {
	if t.info.Topology == liveScrape {
		fmt.Fprintln(w, "no flight-path spans scraped (start nodes with -trace-sample > 0)")
	} else {
		fmt.Fprintln(w, "no flight-path spans in trace (run with TraceSampling > 0)")
	}
}

// span returns the time covered by the records.
func span(recs []telemetry.Record) time.Duration {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].At() - recs[0].At()
}

// infoReport prints the run header and coarse counts, then the -walk
// census and the merged inputs.
func infoReport(w io.Writer, t *trace) {
	info, recs := t.info, t.recs
	fmt.Fprintf(w, "run: seed=%d topology=%s nodes=%d\n", info.Seed, info.Topology, info.Nodes)
	fmt.Fprintf(w, "rates: interest=%s gradient-lifetime=%s", info.InterestInterval, info.GradientLifetime)
	if info.ExploratoryInterval != "" {
		fmt.Fprintf(w, " exploratory=%s", info.ExploratoryInterval)
	}
	if info.ExploratoryEvery > 0 {
		fmt.Fprintf(w, " exploratory-every=%d", info.ExploratoryEvery)
	}
	fmt.Fprintf(w, " ttl=%d\n", info.TTL)
	msgs, faults := 0, 0
	for _, r := range recs {
		if r.Layer == "fault" {
			faults++
		} else {
			msgs++
		}
	}
	fmt.Fprintf(w, "records: %d (%d messages, %d faults) over %v\n", len(recs), msgs, faults, span(recs))
	if info.DroppedEvents > 0 || info.DroppedFaults > 0 {
		fmt.Fprintf(w, "WARNING: %d events and %d faults were dropped at the trace limit; the end of the run is missing\n",
			info.DroppedEvents, info.DroppedFaults)
	}
	if len(info.FaultScript) > 0 {
		fmt.Fprintln(w, "fault script:")
		for _, line := range info.FaultScript {
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
	if t.walked != nil {
		walkReport(w, t.walked)
	}
	if len(t.sources) > 0 {
		fmt.Fprintln(w, "sources:")
	}
	for _, s := range t.sources {
		fmt.Fprintf(w, "  node %d (%s): %d spans, boot %08x\n", s.node, s.name, s.spans, s.boot)
	}
}

// classCounts tallies message records by class; faults are excluded, so
// the totals line up with the simulator's own Trace.CountByClass.
func classCounts(recs []telemetry.Record) map[string]int {
	out := map[string]int{}
	for _, r := range recs {
		if r.Layer == "fault" {
			continue
		}
		out[r.Class]++
	}
	return out
}

// controlClass reports whether a message class is routing control traffic
// (as opposed to payload-bearing data) for the Figure 9-style budget split.
func controlClass(class string) bool {
	switch class {
	case "INTEREST", "POSITIVE_REINFORCEMENT", "NEGATIVE_REINFORCEMENT":
		return true
	}
	return false
}

// processing returns the faults and the processing events among recs:
// org and fwd records, or, in a trace without fwd records (a node's /spans
// body, whose originations are core-layer org spans), org records and the
// core layer's recv spans, as fwd records naming their sender From.
// Link-layer tx and recv spans are not processing events.
func processing(recs []telemetry.Record) []telemetry.Record {
	spansOnly := !slices.ContainsFunc(recs, func(r telemetry.Record) bool { return r.Verb == "fwd" })
	var out []telemetry.Record
	for _, r := range recs {
		if spansOnly && r.Layer == "core" && r.Verb == "recv" {
			r.Verb, r.From, r.Peer = "fwd", r.Peer, 0
		}
		if r.Layer == "fault" || r.Verb == "org" || r.Verb == "fwd" {
			out = append(out, r)
		}
	}
	return out
}

// budgetReport prints the message budget: per-class processing counts with
// the originated/forwarded split, then the control-vs-data share — the
// paper's Figure 9 accounting, read off a trace instead of a model.
func budgetReport(w io.Writer, info telemetry.RunInfo, recs []telemetry.Record) {
	type row struct{ org, fwd int }
	byClass := map[string]*row{}
	for _, r := range processing(recs) {
		if r.Layer == "fault" {
			continue
		}
		c := byClass[r.Class]
		if c == nil {
			c = &row{}
			byClass[r.Class] = c
		}
		if r.Verb == "org" {
			c.org++
		} else {
			c.fwd++
		}
	}
	classes := make([]string, 0, len(byClass))
	total := 0
	for c, r := range byClass {
		classes = append(classes, c)
		total += r.org + r.fwd
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "message budget: %d processing events over %v\n", total, span(recs))
	fmt.Fprintf(w, "  %-24s %8s %8s %8s\n", "class", "org", "fwd", "total")
	control := 0
	for _, c := range classes {
		r := byClass[c]
		fmt.Fprintf(w, "  %-24s %8d %8d %8d\n", c, r.org, r.fwd, r.org+r.fwd)
		if controlClass(c) {
			control += r.org + r.fwd
		}
	}
	if total > 0 {
		fmt.Fprintf(w, "control (interest+reinforcement): %d (%.1f%%)\n",
			control, 100*float64(control)/float64(total))
		fmt.Fprintf(w, "data (exploratory+reinforced):    %d (%.1f%%)\n",
			total-control, 100*float64(total-control)/float64(total))
	}
}

// flow is one message origination's journey through the network.
type flow struct {
	id      string
	class   string
	origin  uint32
	start   time.Duration
	end     time.Duration
	events  int
	maxHops int
}

// collectFlows groups data-class message records by message ID.
func collectFlows(recs []telemetry.Record) []flow {
	byID := map[string]*flow{}
	var order []string
	for _, r := range recs {
		if r.Layer == "fault" || (r.Class != "DATA" && r.Class != "EXPLORATORY_DATA") {
			continue
		}
		f := byID[r.ID]
		if f == nil {
			f = &flow{id: r.ID, class: r.Class, origin: r.Node, start: r.At()}
			byID[r.ID] = f
			order = append(order, r.ID)
		}
		f.events++
		f.end = r.At()
		if r.Hops > f.maxHops {
			f.maxHops = r.Hops
		}
	}
	out := make([]flow, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}

// flowsReport aggregates per-flow latency by class; top > 0 also lists the
// slowest individual flows.
func flowsReport(w io.Writer, recs []telemetry.Record, top int) {
	flows := collectFlows(recs)
	if len(flows) == 0 {
		fmt.Fprintln(w, "no data flows in trace")
		return
	}
	type agg struct {
		n     int
		sum   time.Duration
		max   time.Duration
		hops  int
		evsum int
	}
	byClass := map[string]*agg{}
	for _, f := range flows {
		a := byClass[f.class]
		if a == nil {
			a = &agg{}
			byClass[f.class] = a
		}
		lat := f.end - f.start
		a.n++
		a.sum += lat
		if lat > a.max {
			a.max = lat
		}
		a.hops += f.maxHops
		a.evsum += f.events
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "flows: %d data originations\n", len(flows))
	fmt.Fprintf(w, "  %-18s %6s %12s %12s %9s %10s\n", "class", "flows", "mean lat", "max lat", "mean hops", "mean nodes")
	for _, c := range classes {
		a := byClass[c]
		fmt.Fprintf(w, "  %-18s %6d %12v %12v %9.1f %10.1f\n",
			c, a.n, (a.sum / time.Duration(a.n)).Round(time.Microsecond), a.max,
			float64(a.hops)/float64(a.n), float64(a.evsum)/float64(a.n))
	}
	if top > 0 {
		sort.Slice(flows, func(i, j int) bool { return flows[i].end-flows[i].start > flows[j].end-flows[j].start })
		if top > len(flows) {
			top = len(flows)
		}
		fmt.Fprintf(w, "slowest %d flows:\n", top)
		for _, f := range flows[:top] {
			fmt.Fprintf(w, "  %-12s %-18s from node %-4d latency %-12v hops %d\n",
				f.id, f.class, f.origin, f.end-f.start, f.maxHops)
		}
	}
}

// flowDetail prints one flow's hop-by-hop record: every node that
// processed the message, with the latency from origination.
func flowDetail(w io.Writer, recs []telemetry.Record, id string) error {
	var start time.Duration
	found := false
	for _, r := range recs {
		if r.Layer == "fault" || r.ID != id {
			continue
		}
		if !found {
			start = r.At()
			found = true
			fmt.Fprintf(w, "flow %s (%s):\n", id, r.Class)
		}
		fmt.Fprintf(w, "  +%-12v node=%-4d %s hops=%d from=%d\n",
			r.At()-start, r.Node, r.Verb, r.Hops, r.From)
	}
	if !found {
		return fmt.Errorf("no records for message id %q", id)
	}
	return nil
}

// gradientReport replays one node's gradient table from the trace: every
// interest arrival creates or refreshes a gradient toward its sender
// (expiring one gradient lifetime later), reinforcements mark the data
// gradient the neighbor selected, and fault events involving the node
// interleave. This is the per-node timeline view of the paper's gradient
// machinery.
func gradientReport(w io.Writer, info telemetry.RunInfo, recs []telemetry.Record, node uint32) error {
	if info.GradientLifetime == "" {
		return errors.New("trace header has no gradient_lifetime: gradients needs the node's rates (merged inputs must agree on them)")
	}
	lifetime, err := time.ParseDuration(info.GradientLifetime)
	if err != nil {
		return fmt.Errorf("bad gradient_lifetime %q in trace header: %v", info.GradientLifetime, err)
	}
	fmt.Fprintf(w, "gradient timeline for node %d (lifetime %v):\n", node, lifetime)
	expiry := map[uint32]time.Duration{} // neighbor -> gradient expiry
	live := func(now time.Duration) int {
		n := 0
		for nb, exp := range expiry {
			if exp <= now {
				delete(expiry, nb)
				continue
			}
			n++
		}
		return n
	}
	lines := 0
	for _, r := range processing(recs) {
		at := r.At()
		if r.Layer == "fault" {
			if r.Node == node || r.Peer == node {
				fmt.Fprintf(w, "  %12v fault %s node=%d peer=%d\n", at, r.Verb, r.Node, r.Peer)
				lines++
			}
			continue
		}
		if r.Node != node || r.Verb == "org" { // its own messages make no gradient here
			continue
		}
		switch r.Class {
		case "INTEREST":
			verb := "refreshed"
			if _, ok := expiry[r.From]; !ok {
				verb = "created"
			}
			expiry[r.From] = at + lifetime
			fmt.Fprintf(w, "  %12v gradient -> %-4d %-9s (interest, expires %v; %d live)\n",
				at, r.From, verb, at+lifetime, live(at))
			lines++
		case "POSITIVE_REINFORCEMENT":
			fmt.Fprintf(w, "  %12v reinforced via %d (%d live)\n", at, r.From, live(at))
			lines++
		case "NEGATIVE_REINFORCEMENT":
			fmt.Fprintf(w, "  %12v negatively reinforced via %d (%d live)\n", at, r.From, live(at))
			lines++
		}
	}
	if lines == 0 {
		fmt.Fprintf(w, "  (no gradient activity recorded for node %d)\n", node)
	}
	return nil
}

// diffReport compares two traces: header differences, per-class and
// per-node count deltas, and the first record where the runs diverge.
// Equal seeds must produce byte-identical traces; a non-empty diff of two
// same-seed runs is a determinism bug.
func diffReport(w io.Writer, nameA, nameB string, ia, ib telemetry.RunInfo, ra, rb []telemetry.Record) {
	fmt.Fprintf(w, "A: %s (%d records)\nB: %s (%d records)\n", nameA, len(ra), nameB, len(rb))
	headerDiff := false
	cmp := func(field, a, b string) {
		if a != b {
			fmt.Fprintf(w, "header %-22s A=%s B=%s\n", field, a, b)
			headerDiff = true
		}
	}
	cmp("seed", fmt.Sprint(ia.Seed), fmt.Sprint(ib.Seed))
	cmp("topology", ia.Topology, ib.Topology)
	cmp("nodes", fmt.Sprint(ia.Nodes), fmt.Sprint(ib.Nodes))
	cmp("interest_interval", ia.InterestInterval, ib.InterestInterval)
	cmp("gradient_lifetime", ia.GradientLifetime, ib.GradientLifetime)
	cmp("exploratory_interval", ia.ExploratoryInterval, ib.ExploratoryInterval)
	cmp("ttl", fmt.Sprint(ia.TTL), fmt.Sprint(ib.TTL))
	if !headerDiff {
		fmt.Fprintln(w, "headers match")
	}

	ca, cb := classCounts(ra), classCounts(rb)
	classes := map[string]bool{}
	for c := range ca {
		classes[c] = true
	}
	for c := range cb {
		classes[c] = true
	}
	sorted := make([]string, 0, len(classes))
	for c := range classes {
		sorted = append(sorted, c)
	}
	sort.Strings(sorted)
	classDiff := false
	for _, c := range sorted {
		if ca[c] != cb[c] {
			fmt.Fprintf(w, "class %-24s A=%d B=%d (%+d)\n", c, ca[c], cb[c], cb[c]-ca[c])
			classDiff = true
		}
	}
	if !classDiff {
		fmt.Fprintln(w, "per-class counts match")
	}

	// First divergence: the earliest index where the record streams differ.
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	for i := 0; i < n; i++ {
		if ra[i] != rb[i] {
			fmt.Fprintf(w, "first divergence at record %d:\n  A: %+v\n  B: %+v\n", i, ra[i], rb[i])
			return
		}
	}
	if len(ra) != len(rb) {
		fmt.Fprintf(w, "records identical through %d; lengths differ (A=%d, B=%d)\n", n, len(ra), len(rb))
		return
	}
	fmt.Fprintln(w, "traces are identical")
}
