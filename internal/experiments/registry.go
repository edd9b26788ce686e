// Package experiments reproduces the paper's evaluation (section 6) and
// the ablations DESIGN.md adds to it. Registry lists every table in the
// order cmd/diffsim prints them. Most of them measure one workload, the
// surveillance flow in flow.go, on the simulated testbed: they repeat it
// across seeds with overSeeds and report the paper's rows or series with
// 95% confidence intervals.
package experiments

import (
	"io"
	"time"
)

// Size scales a run. Zero fields keep the experiment's default.
type Size struct {
	Seeds    int           // repetitions: seeds 1..Seeds
	Duration time.Duration // virtual time per run
	Quick    bool          // the experiment's smaller smoke-test variant
}

// seeds returns seeds 1..s.Seeds, or def if s.Seeds is zero.
func (s Size) seeds(def []int64) []int64 {
	if s.Seeds == 0 {
		return def
	}
	out := make([]int64, s.Seeds)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func (s Size) duration(def time.Duration) time.Duration {
	if s.Duration == 0 {
		return def
	}
	return s.Duration
}

// Experiment is one table: its name, its size under -quick, and a run that
// prints it.
type Experiment struct {
	Name  string
	Quick Size
	Run   func(io.Writer, Size)
}

var (
	threeSeeds = []int64{1, 2, 3}
	quick1     = Size{Seeds: 1, Duration: 10 * time.Minute, Quick: true}
	quick2     = Size{Seeds: 2, Duration: 10 * time.Minute, Quick: true}
	quickOnly  = Size{Quick: true}
)

// Registry lists the experiments in cmd/diffsim's "all" order.
var Registry = []Experiment{
	{"fig8", quick2, func(w io.Writer, s Size) {
		cfg := DefaultFig8()
		cfg.Seeds, cfg.Duration = s.seeds(cfg.Seeds), s.duration(cfg.Duration)
		PrintFig8(w, RunFig8(cfg))
	}},
	{"fig9", quick2, func(w io.Writer, s Size) {
		cfg := DefaultFig9()
		cfg.Seeds, cfg.Duration = s.seeds(cfg.Seeds), s.duration(cfg.Duration)
		PrintFig9(w, RunFig9(cfg))
	}},
	{"fig11", quickOnly, func(w io.Writer, s Size) {
		cfg := DefaultFig11()
		if s.Quick {
			cfg.Iterations, cfg.Shuffles = 100, 50
		}
		PrintFig11(w, RunFig11(cfg))
	}},
	{"model", quickOnly, func(w io.Writer, _ Size) { PrintTrafficModel(w) }},
	{"energy", quickOnly, func(w io.Writer, _ Size) { PrintEnergyModel(w) }},
	{"micro", quickOnly, func(w io.Writer, _ Size) { PrintMicroFootprint(w) }},
	{"sweep-exploratory", quick1, func(w io.Writer, s Size) {
		PrintExploratorySweep(w, RunExploratorySweep(s.seeds(threeSeeds), s.duration(20*time.Minute), []int{2, 5, 10, 20, 50}))
	}},
	{"sweep-asymmetry", quick2, func(w io.Writer, s Size) {
		PrintAsymmetrySweep(w, RunAsymmetrySweep(s.seeds(threeSeeds), s.duration(20*time.Minute), []float64{0, 0.8, 2, 4}))
	}},
	{"ablate-negrf", quick2, func(w io.Writer, s Size) {
		PrintNegRFAblation(w, RunNegRFAblation(s.seeds(threeSeeds), s.duration(20*time.Minute)))
	}},
	{"duty-cycle", quick2, func(w io.Writer, s Size) {
		PrintDutyCycleSweep(w, RunDutyCycleSweep(s.seeds(threeSeeds), s.duration(20*time.Minute), []float64{1.0, 0.5, 0.22, 0.15, 0.10}))
	}},
	{"scale", quick1, func(w io.Writer, s Size) {
		sizes := []int{3, 4, 5, 6, 7}
		if s.Quick {
			sizes = []int{3, 5}
		}
		PrintScaleSweep(w, RunScaleSweep(s.seeds(threeSeeds), s.duration(15*time.Minute), sizes))
	}},
	{"push-pull", quick2, func(w io.Writer, s Size) {
		PrintPushPull(w, RunPushPull(s.seeds(threeSeeds), s.duration(20*time.Minute), []int{1, 2, 3, 4}))
	}},
	{"latency", quick2, func(w io.Writer, s Size) {
		window := 500 * time.Millisecond
		PrintLatency(w, RunLatency(s.seeds(threeSeeds), s.duration(20*time.Minute), window), window)
	}},
	{"breakdown", quick2, func(w io.Writer, s Size) {
		PrintBreakdown(w, RunBreakdown(s.seeds(threeSeeds), s.duration(30*time.Minute), 4))
	}},
	{"sweep-capture", quick2, func(w io.Writer, s Size) {
		PrintCaptureSweep(w, RunCaptureSweep(s.seeds(threeSeeds), s.duration(20*time.Minute), []float64{0, 0.5, 0.7, 0.85, 0.95}))
	}},
	{"churn", Size{Seeds: 2, Duration: 12 * time.Minute, Quick: true}, func(w io.Writer, s Size) {
		cfg := ChurnAt(s)
		PrintChurn(w, RunRelayKill(cfg), RunChurnSweep(cfg))
	}},
	{"ferry", Size{Seeds: 2, Duration: 6 * time.Minute, Quick: true}, func(w io.Writer, s Size) {
		cfg := DefaultFerry()
		cfg.Seeds, cfg.Duration = s.seeds(cfg.Seeds), s.duration(cfg.Duration)
		PrintFerry(w, RunFerry(cfg))
	}},
	{"broker", quickOnly, func(w io.Writer, s Size) {
		cfg := DefaultBroker()
		if s.Quick {
			cfg.Sizes, cfg.Msgs = []int{1000, 10000}, 200
		}
		PrintBroker(w, RunBroker(cfg))
	}},
}

// ChurnAt returns the churn configuration at size s. A set duration moves
// the relay kill to its midpoint.
func ChurnAt(s Size) ChurnConfig {
	cfg := DefaultChurn()
	cfg.Seeds = s.seeds(cfg.Seeds)
	if s.Duration > 0 {
		cfg.Duration, cfg.KillAt = s.Duration, s.Duration/2
	}
	return cfg
}
