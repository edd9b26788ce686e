package experiments

import (
	"fmt"
	"io"
	"time"

	"diffusion"
	"diffusion/internal/stats"
)

// This file turns the paper's section 6.1 duty-cycle analysis into a
// measured experiment: the same single-source surveillance workload runs
// over the duty-cycled MAC at the duty cycles the paper discusses, and we
// measure both what the analysis predicts (the listen share of radio
// energy) and what it cannot (the delivery cost of sleeping).

// DutyCyclePoint is one measured duty-cycle operating point.
type DutyCyclePoint struct {
	DutyCycle float64
	// Delivery is the distinct-event delivery rate at the sink.
	Delivery stats.Summary
	// ListenShare is the measured mean fraction of radio energy spent
	// listening (section 6.1 predicts ~83% at d=1, ~50% at d=0.22).
	ListenShare stats.Summary
	// EnergyPerEvent is total relative radio energy across the network
	// divided by delivered distinct events.
	EnergyPerEvent stats.Summary
}

// RunDutyCycleSweep measures the paper's duty-cycle operating points.
func RunDutyCycleSweep(seeds []int64, duration time.Duration, duties []float64) []DutyCyclePoint {
	var out []DutyCyclePoint
	for _, duty := range duties {
		s := overSeeds(seeds, func(seed int64) []float64 { return dutyCycleOnce(seed, duration, duty) })
		out = append(out, DutyCyclePoint{DutyCycle: duty, Delivery: s[0], ListenShare: s[1], EnergyPerEvent: s[2]})
	}
	return out
}

// dutyCycleOnce returns (delivery, mean listen share, energy per event) for
// the single-source flow from node 13 over the duty-cycled MAC.
func dutyCycleOnce(seed int64, duration time.Duration, duty float64) []float64 {
	mp := diffusion.DefaultMAC()
	if duty < 1 {
		mp.DutyCycle = duty
		mp.CyclePeriod = 500 * time.Millisecond
	}
	r := flow{
		cfg:     diffusion.NetworkConfig{Seed: seed, MAC: &mp},
		sources: []uint32{13},
		payload: make([]byte, 50),
	}.run(duration)

	ratios := diffusion.PaperEnergyRatios()
	var listenSum, totalEnergy float64
	nodes := r.net.Nodes()
	for _, n := range nodes {
		b := n.Energy(ratios, duration, duty)
		listenSum += b.ListenFraction()
		totalEnergy += b.Total()
	}
	return []float64{
		r.delivery(0),
		listenSum / float64(len(nodes)),
		totalEnergy / float64(max(len(r.got[0]), 1)),
	}
}

// PrintDutyCycleSweep renders the sweep next to the analytic predictions.
func PrintDutyCycleSweep(w io.Writer, points []DutyCyclePoint) {
	fmt.Fprintln(w, "Measured duty-cycle operating points (section 6.1 analysis, now with delivery cost)")
	fmt.Fprintln(w, "duty-cycle   delivery          listen-share      energy/event")
	r := diffusion.PaperEnergyRatios()
	for _, p := range points {
		fmt.Fprintf(w, "%10.2f   %5.1f%% ± %4.1f%%   %5.1f%% (model %2.0f%%)   %8.1f ± %5.1f\n",
			p.DutyCycle,
			100*p.Delivery.Mean, 100*p.Delivery.CI95,
			100*p.ListenShare.Mean,
			100*r.AtDutyCycle(p.DutyCycle).ListenFraction(),
			p.EnergyPerEvent.Mean, p.EnergyPerEvent.CI95)
	}
	fmt.Fprintln(w, "(idle-dominated nodes track the model; sleeping saves energy but defers and drops traffic)")
}
