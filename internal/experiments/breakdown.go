package experiments

import (
	"fmt"
	"io"
	"time"

	"diffusion/internal/message"
	"diffusion/internal/stats"
	"diffusion/internal/trafficmodel"
)

// This file decomposes the Figure 8 traffic by message class and compares
// it with the section 6.1 analytic model's per-component prediction —
// the validation step the paper performs in prose ("we can confirm these
// results with a simple traffic model ... the shape of this prediction
// matches our experimental results").

// BreakdownPoint is the per-class byte decomposition for one
// configuration.
type BreakdownPoint struct {
	Sources     int
	Suppression bool
	// Per-class bytes per distinct delivered event.
	Interests, Data, Exploratory, Reinforcements stats.Summary
}

// RunBreakdown measures the byte decomposition at the given source count,
// with and without suppression.
func RunBreakdown(seeds []int64, duration time.Duration, sources int) []BreakdownPoint {
	var out []BreakdownPoint
	for _, suppression := range []bool{true, false} {
		s := overSeeds(seeds, func(seed int64) []float64 {
			return breakdownOnce(fig8Flow(DefaultFig8(), sources, suppression, seed).run(duration))
		})
		out = append(out, BreakdownPoint{
			Sources:        sources,
			Suppression:    suppression,
			Interests:      s[message.Interest],
			Data:           s[message.Data],
			Exploratory:    s[message.ExploratoryData],
			Reinforcements: s[message.PositiveReinforcement],
		})
	}
	return out
}

// breakdownOnce returns bytes per distinct delivered event by message
// class, indexed by class. The core counts sends per class and bytes in
// aggregate, so a class's bytes are its message count times the mean
// message size.
func breakdownOnce(r *flowRun) []float64 {
	byClass := make([]int, message.NumClasses)
	totalMsgs, totalBytes := 0, 0
	for _, n := range r.net.Nodes() {
		for c := range byClass {
			byClass[c] += n.Stats.SentByClass[c]
			totalMsgs += n.Stats.SentByClass[c]
		}
		totalBytes += n.Stats.BytesSent
	}
	mean := float64(totalBytes) / float64(max(totalMsgs, 1))
	events := max(len(r.got[0]), 1)
	out := make([]float64, len(byClass))
	for c, count := range byClass {
		out[c] = float64(int(float64(count)*mean)) / float64(events)
	}
	return out
}

// PrintBreakdown renders measured components next to the model's.
func PrintBreakdown(w io.Writer, points []BreakdownPoint) {
	fmt.Fprintln(w, "Figure 8 byte decomposition per distinct event, vs the section 6.1 model")
	fmt.Fprintln(w, "config            interests       data        exploratory   reinforcement")
	model := trafficmodel.Testbed()
	for _, p := range points {
		mode := "without supp"
		if p.Suppression {
			mode = "with supp   "
		}
		fmt.Fprintf(w, "%d src %s  %7.0f ± %3.0f  %7.0f ± %3.0f  %7.0f ± %3.0f  %7.0f ± %3.0f\n",
			p.Sources, mode,
			p.Interests.Mean, p.Interests.CI95,
			p.Data.Mean, p.Data.CI95,
			p.Exploratory.Mean, p.Exploratory.CI95,
			p.Reinforcements.Mean, p.Reinforcements.CI95)
		c := model.BytesPerEvent(p.Sources, p.Suppression)
		fmt.Fprintf(w, "  model:          %7.0f        %7.0f        %7.0f        %7.0f\n",
			c.Interests, c.Data, c.Exploratory, c.Reinforcements)
	}
}
