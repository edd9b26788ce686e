// Command diffsim regenerates the paper's evaluation (section 6): every
// figure and analytic table, plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	diffsim -experiment fig8              # aggregation benefits (Figure 8)
//	diffsim -experiment fig9              # nested queries (Figure 9)
//	diffsim -experiment fig11             # matching cost (Figures 10/11)
//	diffsim -experiment model             # section 6.1 traffic model
//	diffsim -experiment energy            # section 6.1 energy model
//	diffsim -experiment micro             # section 4.3 micro-diffusion budget
//	diffsim -experiment sweep-exploratory # ablation: exploratory cadence
//	diffsim -experiment sweep-asymmetry   # ablation: link asymmetry
//	diffsim -experiment ablate-negrf      # ablation: negative reinforcement
//	diffsim -experiment duty-cycle        # measured duty-cycle trade-off
//	diffsim -experiment scale             # grid scalability sweep
//	diffsim -experiment push-pull         # one-phase push vs two-phase pull
//	diffsim -experiment latency           # §6.1 aggregation latency claim
//	diffsim -experiment breakdown         # Fig.8 byte decomposition vs model
//	diffsim -experiment sweep-capture     # ablation: radio capture effect
//	diffsim -experiment churn             # fault injection: relay kill + MTBF/MTTR churn
//	diffsim -experiment ferry             # disruption tolerance: custody transfer vs baseline
//	diffsim -experiment broker            # million-subscription node on the inverted match index
//	diffsim -experiment all               # everything above
//
// -quick shrinks runs for a fast smoke pass; -seeds and -duration override
// the repetition count and per-run virtual time of the simulated
// experiments. For the churn experiment, -metrics prints the first seed's
// end-of-run per-layer metrics snapshot and -trace-out FILE exports its
// relay-kill message trace as JSONL for cmd/difftrace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"diffusion/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run ("+names()+", all)")
		quick      = flag.Bool("quick", false, "shrink runs for a fast smoke pass")
		seeds      = flag.Int("seeds", 0, "override the number of repetitions")
		duration   = flag.Duration("duration", 0, "override the per-run virtual duration")
		metrics    = flag.Bool("metrics", false, "print the end-of-run per-layer metrics snapshot (churn experiment, first seed)")
		traceOut   = flag.String("trace-out", "", "export the churn experiment's first-seed relay-kill trace as JSONL to this file (analyze with difftrace)")
		traceSamp  = flag.Float64("trace-sample", 0, "flight-path sampling rate [0,1] for the -trace-out export (difftrace paths/latency)")
	)
	flag.Parse()

	if err := run(os.Stdout, *experiment, *quick, *seeds, *duration, *metrics, *traceOut, *traceSamp); err != nil {
		fmt.Fprintln(os.Stderr, "diffsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, experiment string, quick bool, seeds int, duration time.Duration, metrics bool, traceOut string, traceSamp float64) error {
	if traceSamp < 0 || traceSamp > 1 {
		return fmt.Errorf("-trace-sample %v out of range [0,1]", traceSamp)
	}
	ran := 0
	for _, e := range experiments.Registry {
		if experiment != "all" && experiment != e.Name {
			continue
		}
		if ran++; ran > 1 {
			fmt.Fprintln(w)
		}
		var size experiments.Size
		if quick {
			size = e.Quick
		}
		if seeds > 0 {
			size.Seeds = seeds
		}
		if duration > 0 {
			size.Duration = duration
		}
		e.Run(w, size)
		if e.Name == "churn" && (metrics || traceOut != "") {
			if err := traceChurn(w, experiments.ChurnAt(size), metrics, traceOut, traceSamp); err != nil {
				return err
			}
		}
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (want %s, or all)", experiment, names())
	}
	return nil
}

// names lists the registry's experiments in order.
func names() string {
	var out []string
	for _, e := range experiments.Registry {
		out = append(out, e.Name)
	}
	return strings.Join(out, ", ")
}

// traceChurn re-runs the churn experiment's first seed traced: a trace only
// records what the nodes do, so with sampling off the traced run
// reproduces the printed one exactly, metrics included. -trace-sample
// > 0 adds flight-path spans to the export at the cost of extra
// per-origination random draws (the traced re-run's jitter then differs
// from the printed run's).
func traceChurn(w io.Writer, cfg experiments.ChurnConfig, metrics bool, traceOut string, traceSamp float64) error {
	cfg.TraceSampling = traceSamp
	_, tr, snap := experiments.RunRelayKillTraced(cfg, cfg.Seeds[0])
	if metrics {
		fmt.Fprintln(w)
		snap.Write(w)
	}
	if traceOut == "" {
		return nil
	}
	f, err := os.Create(traceOut)
	if err != nil {
		return err
	}
	if err := tr.ExportJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntrace: %d records (seed %d) written to %s\n",
		tr.Len()+len(tr.Faults()), cfg.Seeds[0], traceOut)
	return nil
}
