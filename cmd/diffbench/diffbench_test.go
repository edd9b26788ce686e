package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSpecMatchesBenchmarkJSON keeps the names the tool prints and the
// names BENCHMARK.json promises from drifting apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if want := theContract(); !reflect.DeepEqual(b, want) {
		t.Errorf("BENCHMARK.json differs from diffbench -contract:\n json %+v\n tool %+v", b, want)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is named twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestWorkloadsShort runs every workload, plain and traced, at a scale of
// about a second. It asserts counts and correctness, never a time.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.Name + "/end_to_end"
			if trace {
				name = w.Name + "/per_layer"
			}
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.Name, seed: 7, seconds: 500 * time.Millisecond, trace: trace, short: true}
				rep, err := runWorkload(o)
				if err != nil {
					t.Fatal(err)
				}
				res := finish(rep, trace)
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("incorrect run: failed %d of %d: %v", res.Failed, res.Attempted, rep.problems)
				}
				if res.Attempted < 1 {
					t.Fatalf("attempted %d", res.Attempted)
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Fatalf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					v, ok := res.Metrics[s.Name]
					if !ok || v.Unit != s.Unit {
						t.Errorf("metric %s: printed %+v, want unit %s", s.Name, v, s.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, v.Value)
					}
				}
				var out bytes.Buffer
				printRun(&out, o, rep, res)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var keys map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := keys[k]; !ok {
						t.Errorf("result line lacks %q", k)
					}
				}
				if len(keys) != 4 {
					t.Errorf("result line has %d keys, want 4", len(keys))
				}
			})
		}
	}
}

// TestSimulatedCountsRepeat checks that a simulated workload's statistics
// depend on the seed and on nothing else.
func TestSimulatedCountsRepeat(t *testing.T) {
	run := func(seed int64) map[string]float64 {
		rep, err := runWorkload(options{workload: wTestbedFig8, seed: seed, seconds: 500 * time.Millisecond, short: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep.metrics
	}
	a, b, c := run(11), run(11), run(12)
	for _, k := range simulatedExact {
		if a[k] != b[k] {
			t.Errorf("%s: %v then %v with one seed", k, a[k], b[k])
		}
	}
	if a["wire_bytes_per_event"] == c["wire_bytes_per_event"] {
		t.Errorf("seeds 11 and 12 gave the same bytes per event, %v: the seed does not reach the inputs", a["wire_bytes_per_event"])
	}
}
