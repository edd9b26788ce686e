// Command diffbench is the repository's benchmark: one program that
// assembles the system in-process from its public functions, drives a named
// workload, checks every output and prints every metric by name with its
// unit. README.md in this directory defines the workloads and metrics;
// BENCHMARK.json at the repository root is the contract a driver reads.
//
//	diffbench -workload line5_udp -seed 1 -seconds 16 -trace 0
//	diffbench -workload line5_udp -seed 1 -seconds 16 -trace 1 -trace-out spans.jsonl
//	diffbench -repeat 2 -check
//	diffbench -probe custody
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when the run
// was correct, 1 when a check failed and 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are one run's arguments.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
	// short shrinks a workload to well under a second (1 000 subscriptions,
	// one simulated minute) for the package's test.
	short bool
}

// report is what one run measured.
type report struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // each one makes the run incorrect
	notes     []string // printed beside the metrics
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// runWorkload dispatches one run.
func runWorkload(o options) (*report, error) {
	if spec, ok := liveSpecs[o.workload]; ok {
		if o.trace {
			return traceLive(spec, o)
		}
		return runLive(spec, o)
	}
	switch o.workload {
	case wGrid1024:
		return runGrid(gridSpec(), o, o.trace)
	case wTestbedFig8:
		return runFig8(fig8Spec(), o, o.trace)
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish turns a report into the result line: every metric of the run's
// kind, by name, with its unit. An end-to-end metric that is missing or
// zero makes the run incorrect; a per-layer metric that does not apply to
// the workload reads 0.
func finish(rep *report, trace bool) resultLine {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	out := resultLine{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := rep.metrics[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s is %v", s.Name, v))
			v = 0
		}
		if !trace && (!ok || v <= 0) {
			rep.problems = append(rep.problems, "end-to-end metric "+s.Name+" was not measured")
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if rep.attempted < 1 {
		rep.problems = append(rep.problems, "no event was attempted")
	}
	out.Correct = rep.failed == 0 && len(rep.problems) == 0
	return out
}

// printRun writes the human-readable part and then the result line.
func printRun(w io.Writer, o options, rep *report, res resultLine) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", o.workload, o.seed, o.seconds.Seconds(), o.trace)
	fmt.Fprintln(w, readHost())
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
	fmt.Fprintf(w, "  attempted %d failed %d\n", rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "  INCORRECT:", p)
	}
	line, _ := json.Marshal(res) // a struct of numbers and strings cannot fail to encode
	fmt.Fprintf(w, "%s\n", line)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o options
	var seconds float64
	var trace int
	var repeat int
	var check, printContract bool
	var probe, out string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadList())
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&seconds, "seconds", float64(theContract().RunSeconds), "seconds to measure for")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1 on a live workload, write the spans to this file as JSONL")
	flag.IntVar(&repeat, "repeat", 0, "run every workload this many times back to back and print the values side by side")
	flag.BoolVar(&check, "check", false, "with -repeat, exit 1 if two runs of a metric differ by more than its bound")
	flag.StringVar(&out, "out", "", "with -repeat, also write the runs and the host fingerprint to this file as JSON")
	flag.BoolVar(&printContract, "contract", false, "print BENCHMARK.json from the tool's own tables and exit")
	flag.StringVar(&probe, "probe", "", "run a diagnostic that is not a benchmark workload: custody")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1

	// One generator goroutine and at most six node loops: more processors
	// than four only add scheduler noise.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case flag.NArg() > 0 || trace < 0 || trace > 1 || seconds <= 0:
		flag.Usage()
		return 2
	case printContract:
		data, _ := json.MarshalIndent(theContract(), "", "  ") // plain tables cannot fail to encode
		fmt.Printf("%s\n", data)
		return 0
	case probe == "custody":
		return probeCustody(os.Stdout, o)
	case probe != "":
		fmt.Fprintf(os.Stderr, "diffbench: unknown probe %q\n", probe)
		return 2
	case repeat > 0:
		return repeatAll(os.Stdout, o, repeat, check, out)
	case !workloadNamed(o.workload):
		fmt.Fprintf(os.Stderr, "diffbench: -workload must be one of %s\n", workloadList())
		return 2
	}
	rep, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffbench:", err)
		return 2
	}
	res := finish(rep, o.trace)
	printRun(os.Stdout, o, rep, res)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadList() string {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
