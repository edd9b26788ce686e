package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
)

// simulated lists the workloads whose simulated statistics must repeat
// exactly for one seed, and which of their metrics are such statistics.
var (
	simulated      = map[string]bool{wGrid1024: true, wTestbedFig8: true}
	simulatedExact = []string{"wire_bytes_per_event", "latency_p50_us"}
)

// baselineFile is what -out writes: the host the numbers came from, read
// by the tool, and every run.
type baselineFile struct {
	Host    hostInfo                `json:"host"`
	Seed    int64                   `json:"seed"`
	Seconds float64                 `json:"seconds"`
	Runs    map[string][]resultLine `json:"runs"`
}

// repeatAll runs every workload n times with one seed, each run a fresh
// process exactly as a driver would start it, and prints each metric's
// values side by side with their relative spread. With check it fails when
// a spread exceeds the metric's bound, when a run was incorrect, or when a
// simulated statistic differs at all between runs.
func repeatAll(w io.Writer, o options, n int, check bool, out string) int {
	host := readHost()
	fmt.Fprintln(w, host)
	if out != "" && host.NumCPU < 2 {
		fmt.Fprintln(os.Stderr, "diffbench: refusing to write a baseline from a host with one CPU: the node loops and the generator would share it")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "diffbench:", err)
		return 2
	}
	file := baselineFile{Host: host, Seed: o.seed, Seconds: o.seconds.Seconds(), Runs: map[string][]resultLine{}}
	bad := 0
	for _, wl := range workloads {
		var runs []resultLine
		for i := 0; i < n; i++ {
			res, err := runChild(self, wl.Name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "diffbench: %s run %d: %v\n", wl.Name, i+1, err)
				return 2
			}
			if !res.Correct {
				fmt.Fprintf(w, "%s run %d: INCORRECT (%d of %d failed)\n", wl.Name, i+1, res.Failed, res.Attempted)
				bad++
			}
			runs = append(runs, res)
		}
		file.Runs[wl.Name] = runs
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, m := range endToEnd {
			vals := make([]float64, n)
			for i, r := range runs {
				vals[i] = r.Metrics[m.Name].Value
			}
			sorted := append([]float64(nil), vals...)
			sort.Float64s(sorted)
			spread := 0.0
			if mid := medianFloat(sorted); mid > 0 {
				spread = (sorted[n-1] - sorted[0]) / mid
			}
			verdict := ""
			exact := simulated[wl.Name] && slices.Contains(simulatedExact, m.Name)
			switch {
			case exact && spread != 0:
				verdict = "  DIFFERS (simulated statistic, must repeat exactly)"
				bad++
			case !exact && spread > m.Bound:
				verdict = fmt.Sprintf("  OVER BOUND %.2f", m.Bound)
				bad++
			}
			fmt.Fprintf(w, "  %-22s", m.Name)
			for _, v := range vals {
				fmt.Fprintf(w, " %14.4f", v)
			}
			fmt.Fprintf(w, " %-6s spread %.4f%s\n", m.Unit, spread, verdict)
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "diffbench: write baseline:", err)
			return 2
		}
	}
	if check && bad > 0 {
		fmt.Fprintf(w, "check: %d metric pairs or runs out of bounds on %d CPUs\n", bad, runtime.NumCPU())
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh process and parses its result line.
func runChild(self, workload string, o options) (resultLine, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	// Exit code 1 means a check failed; the result line is still there.
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return resultLine{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return resultLine{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}
