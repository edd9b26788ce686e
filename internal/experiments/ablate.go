package experiments

import (
	"fmt"
	"io"
	"time"

	"diffusion"
	"diffusion/internal/stats"
)

// This file holds the ablation studies DESIGN.md calls out: design
// parameters the paper discusses qualitatively, quantified on the
// simulated testbed.

// ExploratorySweepPoint measures aggregation savings at one exploratory
// cadence.
type ExploratorySweepPoint struct {
	ExploratoryEvery int
	Savings          float64 // fractional bytes/event reduction at 4 sources
}

// RunExploratorySweep quantifies how the exploratory cadence shifts where
// aggregation's savings come from. Section 6.1 attributes the
// simulation-vs-testbed savings gap to the exploratory:data ratio (1:100
// vs 1:10). In this system the duplicate-suppression filter removes whole
// redundant exploratory floods, so measured savings are largest when
// exploratory messages are frequent and shrink toward the path-sharing
// component as they thin out — see EXPERIMENTS.md for the discussion of
// how this relates to the paper's account.
func RunExploratorySweep(seeds []int64, duration time.Duration, ratios []int) []ExploratorySweepPoint {
	var out []ExploratorySweepPoint
	for _, every := range ratios {
		cfg := DefaultFig8()
		cfg.ExploratoryEvery = every
		s := overSeeds(seeds, func(seed int64) []float64 {
			return []float64{
				fig8Flow(cfg, 4, true, seed).run(duration).bytesPerEvent(),
				fig8Flow(cfg, 4, false, seed).run(duration).bytesPerEvent(),
			}
		})
		sv := 0.0
		if s[1].Mean > 0 {
			sv = 1 - s[0].Mean/s[1].Mean
		}
		out = append(out, ExploratorySweepPoint{ExploratoryEvery: every, Savings: sv})
	}
	return out
}

// PrintExploratorySweep renders the sweep.
func PrintExploratorySweep(w io.Writer, points []ExploratorySweepPoint) {
	fmt.Fprintln(w, "Ablation: aggregation savings vs exploratory cadence (4 sources)")
	fmt.Fprintln(w, "exploratory 1-in-N   savings")
	for _, p := range points {
		fmt.Fprintf(w, "%18d   %6.0f%%\n", p.ExploratoryEvery, 100*p.Savings)
	}
	fmt.Fprintln(w, "(suppressing redundant floods dominates: savings shrink as exploratory messages thin out)")
}

// AsymmetryPoint measures delivery at one link-asymmetry level.
type AsymmetryPoint struct {
	Sigma    float64
	Delivery stats.Summary
}

// RunAsymmetrySweep quantifies the section 6.4 observation that
// asymmetric links hurt diffusion ("diffusion does not currently work
// well with asymmetric links"): single-source delivery rate as the
// per-directed-link asymmetry grows.
func RunAsymmetrySweep(seeds []int64, duration time.Duration, sigmas []float64) []AsymmetryPoint {
	var out []AsymmetryPoint
	for _, sigma := range sigmas {
		rp := diffusion.DefaultRadio()
		rp.AsymmetrySigma = sigma
		cfg := DefaultFig8()
		cfg.Seeds, cfg.Duration, cfg.Radio = seeds, duration, &rp
		out = append(out, AsymmetryPoint{Sigma: sigma, Delivery: RunFig8Point(cfg, 1, false).DeliveryRate})
	}
	return out
}

// PrintAsymmetrySweep renders the sweep.
func PrintAsymmetrySweep(w io.Writer, points []AsymmetryPoint) {
	fmt.Fprintln(w, "Ablation: single-source event delivery vs link asymmetry (section 6.4)")
	fmt.Fprintln(w, "asymmetry sigma (m)   delivery")
	for _, p := range points {
		fmt.Fprintf(w, "%19.1f   %5.1f%% ± %4.1f%%\n",
			p.Sigma, 100*p.Delivery.Mean, 100*p.Delivery.CI95)
	}
}

// CapturePoint measures delivery at one radio capture setting.
type CapturePoint struct {
	CaptureRatio float64
	Delivery     stats.Summary
}

// RunCaptureSweep quantifies the capture effect, the substrate modelling
// choice that most affects behaviour under contention (DESIGN.md: the
// testbed's FM radios capture strongly; without capture, any overlap at a
// receiver destroys both frames and the shared medium melts down under
// the Figure 8 load).
func RunCaptureSweep(seeds []int64, duration time.Duration, ratios []float64) []CapturePoint {
	var out []CapturePoint
	for _, ratio := range ratios {
		rp := diffusion.DefaultRadio()
		rp.CaptureRatio = ratio
		cfg := DefaultFig8()
		cfg.Seeds, cfg.Duration, cfg.Radio = seeds, duration, &rp
		out = append(out, CapturePoint{CaptureRatio: ratio, Delivery: RunFig8Point(cfg, 4, false).DeliveryRate})
	}
	return out
}

// PrintCaptureSweep renders the sweep.
func PrintCaptureSweep(w io.Writer, points []CapturePoint) {
	fmt.Fprintln(w, "Ablation: radio capture effect (4 sources, no suppression)")
	fmt.Fprintln(w, "capture ratio   delivery")
	for _, p := range points {
		label := fmt.Sprintf("%13.2f", p.CaptureRatio)
		if p.CaptureRatio == 0 {
			label = "   off (0.00)"
		}
		fmt.Fprintf(w, "%s   %5.1f%% ± %4.1f%%\n",
			label, 100*p.Delivery.Mean, 100*p.Delivery.CI95)
	}
	fmt.Fprintln(w, "(FM radios like the testbed's capture strongly; without it, overlapping frames")
	fmt.Fprintln(w, " always destroy each other and hidden-terminal load collapses delivery)")
}

// NegRFPoint measures the negative-reinforcement ablation.
type NegRFPoint struct {
	Enabled       bool
	BytesPerEvent stats.Summary
	Duplicates    stats.Summary // duplicate data receptions across all nodes
}

// RunNegRFAblation compares runs with and without negative reinforcement:
// without teardown, redundant reinforced paths persist and duplicate data
// keeps flowing (section 3.1: "negative reinforcements suppress loops or
// duplicate paths").
func RunNegRFAblation(seeds []int64, duration time.Duration) []NegRFPoint {
	var out []NegRFPoint
	for _, enabled := range []bool{true, false} {
		cfg := DefaultFig8()
		cfg.DisableNegRF = !enabled
		// 2 sources without suppression: bytes/event and duplicate data
		// receptions summed over all nodes.
		s := overSeeds(seeds, func(seed int64) []float64 {
			r := fig8Flow(cfg, 2, false, seed).run(duration)
			dups := 0
			for _, n := range r.net.Nodes() {
				dups += n.Stats.Duplicates
			}
			return []float64{r.bytesPerEvent(), float64(dups)}
		})
		out = append(out, NegRFPoint{Enabled: enabled, BytesPerEvent: s[0], Duplicates: s[1]})
	}
	return out
}

// PrintNegRFAblation renders the ablation.
func PrintNegRFAblation(w io.Writer, points []NegRFPoint) {
	fmt.Fprintln(w, "Ablation: negative reinforcement (2 sources, no suppression filters)")
	fmt.Fprintln(w, "neg-reinforcement   B/event           duplicate receptions")
	for _, p := range points {
		mode := "disabled"
		if p.Enabled {
			mode = "enabled "
		}
		fmt.Fprintf(w, "%s           %8.0f ± %5.0f   %8.0f ± %5.0f\n",
			mode, p.BytesPerEvent.Mean, p.BytesPerEvent.CI95,
			p.Duplicates.Mean, p.Duplicates.CI95)
	}
}
