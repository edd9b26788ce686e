// Command diffscope follows messages across a live diffusion cluster: it
// scrapes every node's flight-path span ring (diffnode's GET /spans,
// enabled with -trace-sample), rebases each node's spans onto a common
// wall-clock base, and merges them into causal flight paths — the live
// counterpart of `difftrace paths` for a simulator trace. The paper's
// section 7 laments "the difficulty in understanding what was going on in
// a network of dozens of physically distributed nodes"; this is the tool
// that answers "where exactly did flow 7 die?" on a running mesh.
//
// Usage:
//
//	diffscope [-walk] [-flow F] [-o merged.jsonl] host:port [host:port ...]
//
// Each argument is a diffnode control-plane address. With -walk the
// arguments are entry points only: diffscope breadth-first walks each
// node's GET /neighbors membership view — following the control-plane
// addresses that discovery announces carry — prints a membership census,
// and scrapes every node it found. The report lists
// every sampled flow's relay chain with per-hop latencies, per-hop and
// end-to-end latency percentiles, the time-ordered reinforcement-path
// evolution, and a drop-localization verdict per undelivered flow.
// -flow prints one flow's merged event timeline instead; -o additionally
// writes the merged spans as a difftrace-compatible JSONL trace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"diffusion/internal/flightpath"
	"diffusion/internal/telemetry"
)

const usage = "usage: diffscope [-walk] [-flow F] [-o merged.jsonl] host:port [host:port ...]"

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "diffscope:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("diffscope", flag.ContinueOnError)
	flowHex := fs.String("flow", "", "print one flow's merged event timeline (hex flow ID as listed)")
	out := fs.String("o", "", "also write the merged spans as a JSONL trace")
	walk := fs.Bool("walk", false, "treat the addresses as entry points and walk GET /neighbors to find the whole mesh")
	timeout := fs.Duration("timeout", 5*time.Second, "per-node scrape timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	flowID, err := flightpath.ParseFlowID(*flowHex)
	if err != nil {
		return err
	}
	addrs := fs.Args()
	if len(addrs) == 0 {
		return errors.New(usage)
	}

	client := &http.Client{Timeout: *timeout}
	if *walk {
		nodes, err := walkMesh(w, client, addrs)
		if err != nil {
			return err
		}
		if len(nodes) == 0 {
			return errors.New("walk found no nodes")
		}
		walkReport(w, nodes)
		addrs = addrs[:0]
		for _, n := range nodes {
			addrs = append(addrs, n.Addr)
		}
	}

	scrapes := make([]scrape, 0, len(addrs))
	for _, addr := range addrs {
		s, err := scrapeNode(client, addr)
		if err != nil {
			// On a walked mesh tracing may simply be off (or a node died
			// between census and scrape): report and move on. An explicit
			// node list keeps the hard error.
			if *walk {
				fmt.Fprintf(w, "diffscope: scrape %s: %v\n", addr, err)
				continue
			}
			return fmt.Errorf("scrape %s: %w", addr, err)
		}
		scrapes = append(scrapes, s)
	}
	recs := merge(scrapes)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		info := telemetry.RunInfo{Topology: "live-scrape", Nodes: len(scrapes)}
		if err := telemetry.WriteJSONL(f, info, recs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	flows := flightpath.Assemble(recs)
	fmt.Fprintf(w, "diffscope: %d nodes, %d spans, %d flows\n", len(scrapes), len(recs), len(flows))
	for _, s := range scrapes {
		fmt.Fprintf(w, "  node %d (%s): %d spans, boot %08x\n", s.node, s.addr, len(s.recs), s.boot)
	}
	if len(flows) == 0 {
		fmt.Fprintln(w, "no flight-path spans scraped (start nodes with -trace-sample > 0)")
		return nil
	}
	if flowID != 0 {
		return flightpath.WriteTimeline(w, flows, flowID, annotatedPath)
	}
	report(w, flows)
	return nil
}

// scrape is one node's /spans response: identity, boot nonce, and its
// records rebased onto absolute microseconds (unix time).
type scrape struct {
	addr string
	node uint32
	boot uint32
	recs []telemetry.Record
}

// scrapeNode fetches and parses one node's span ring: a JSONL trace whose
// run info carries the node ID, boot nonce and the absolute base of the
// ring's clock, and whose records' us are relative to that base.
func scrapeNode(client *http.Client, addr string) (scrape, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url + "/spans")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return scrape{}, fmt.Errorf("GET /spans: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	info, recs, err := telemetry.ReadJSONL(resp.Body)
	if err != nil {
		return scrape{}, fmt.Errorf("GET /spans: %w", err)
	}
	for i := range recs {
		recs[i].US += info.StartUnixUS // rebase onto wall time
	}
	return scrape{addr: addr, node: info.Node, boot: info.Boot, recs: recs}, nil
}

// merge flattens the scrapes onto one timeline, rebased so the earliest
// span is time zero, stably ordered by time with ties in scrape order.
func merge(scrapes []scrape) []telemetry.Record {
	var out []telemetry.Record
	for _, s := range scrapes {
		out = append(out, s.recs...)
	}
	if len(out) == 0 {
		return nil
	}
	min := out[0].US
	for _, r := range out {
		if r.US < min {
			min = r.US
		}
	}
	for i := range out {
		out[i].US -= min
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].US < out[j].US })
	return out
}

// report prints the full cluster view: flight paths with per-hop
// latencies, latency percentiles, reinforcement evolution, and drop
// verdicts.
func report(w io.Writer, flows []*flightpath.Flow) {
	delivered, dropped := 0, 0
	for _, f := range flows {
		if f.Delivered {
			delivered++
		} else if f.Dropped {
			dropped++
		}
	}
	fmt.Fprintf(w, "flight paths (%d delivered, %d dropped):\n", delivered, dropped)
	for _, f := range flows {
		fmt.Fprintf(w, "  %04x %-18s %s\n", f.Flow, f.Class, annotatedPath(f))
		fmt.Fprintf(w, "       %s\n", flightpath.Localize(f))
	}

	fmt.Fprintln(w, "latency:")
	flightpath.WriteLatencies(w, flows)

	// Reinforcement-path evolution: every reinforcement sighting across
	// every flow, in time order — the gradient field being sharpened (and
	// pruned) as the run progresses.
	type evoEvent struct {
		us   int64
		flow uint16
		e    flightpath.Edge
	}
	var evo []evoEvent
	for _, f := range flows {
		for _, e := range f.Reinforcements {
			evo = append(evo, evoEvent{e.US, f.Flow, e})
		}
	}
	sort.SliceStable(evo, func(i, j int) bool { return evo[i].us < evo[j].us })
	if len(evo) > 0 {
		fmt.Fprintln(w, "reinforcement-path evolution:")
		for _, ev := range evo {
			sign := "positive"
			if ev.e.Negative {
				sign = "negative"
			}
			fmt.Fprintf(w, "  +%-12v flow %04x %s %s at node %d\n",
				time.Duration(ev.us)*time.Microsecond, ev.flow, sign, ev.e.Verb, ev.e.Node)
		}
	}

	printed := false
	for _, f := range flows {
		if f.Delivered {
			continue
		}
		if !printed {
			fmt.Fprintln(w, "undelivered flows:")
			printed = true
		}
		fmt.Fprintf(w, "  %s\n", flightpath.Localize(f))
	}
}

// annotatedPath renders the relay chain with each hop's latency inline:
// "n5 -(1.2ms)-> n4 -(950µs)-> n3".
func annotatedPath(f *flightpath.Flow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n%d", f.Origin)
	for _, h := range f.Hops {
		switch {
		case h.RxUS >= 0 && h.LatencyUS() >= 0:
			fmt.Fprintf(&b, " -(%v)-> n%d", time.Duration(h.LatencyUS())*time.Microsecond, h.RxNode)
		case h.RxUS >= 0:
			fmt.Fprintf(&b, " -> n%d", h.RxNode)
		case h.TxUS >= 0:
			b.WriteString(" -> ?")
		}
	}
	return b.String()
}
