// Package trafficmodel implements the paper's section 6.1 analytic traffic
// model, which the authors use to confirm the Figure 8 measurements:
//
//	"We approximate all messages as 127B long and add together interest
//	messages (sent every 60s and flooded from each node), reinforcement
//	messages (sent on the reinforced path between the sink and each
//	source), simple data messages (9 out of every 10 data messages, sent
//	only on the reinforced path, and either aggregated or not), and
//	exploratory data messages (1 out of every 10 data messages, sent from
//	each source and flooded in turn from each node, again possibly
//	aggregated). ... Summing the message cost and normalizing per event we
//	expect aggregation to provide a flat 990B/event independent of the
//	number of sources, and we expect bytes sent per event to increase from
//	990 to 3289B/event without aggregation as the number of sources rise
//	from 1 to 4."
//
// With the testbed parameters (14 nodes, 127-byte messages, one event per
// 6 s, interests every 60 s, a 1:10 exploratory ratio, and a 5-hop
// reinforced path) this model yields 990 B/event for the aggregated case at
// any source count, and 990→3429 B/event for 1→4 unaggregated sources —
// within ~4% of the paper's 3289 (the paper's exact per-component
// accounting is not fully specified). The shape — aggregation flat,
// no-aggregation rising roughly linearly — is exact.
package trafficmodel

import (
	"fmt"
	"time"
)

// Params parameterizes the model.
type Params struct {
	// Nodes is the network size (floods cost one transmission per node).
	Nodes int
	// MessageBytes approximates every message's size.
	MessageBytes int
	// PathHops is the reinforced path length between sink and sources.
	PathHops int
	// EventInterval is the per-source data generation period.
	EventInterval time.Duration
	// InterestInterval is the interest refresh period.
	InterestInterval time.Duration
	// ExploratoryRatio is the fraction of data messages sent exploratory.
	ExploratoryRatio float64
}

// Testbed returns the paper's testbed parameters.
func Testbed() Params {
	return Params{
		Nodes:            14,
		MessageBytes:     127,
		PathHops:         5,
		EventInterval:    6 * time.Second,
		InterestInterval: 60 * time.Second,
		ExploratoryRatio: 0.1,
	}
}

// Components is the per-event byte breakdown.
type Components struct {
	Interests      float64
	Exploratory    float64
	Data           float64
	Reinforcements float64
}

// Total sums the components.
func (c Components) Total() float64 {
	return c.Interests + c.Exploratory + c.Data + c.Reinforcements
}

// String renders the breakdown.
func (c Components) String() string {
	return fmt.Sprintf("interests=%.0fB expl=%.0fB data=%.0fB reinf=%.0fB total=%.0fB/event",
		c.Interests, c.Exploratory, c.Data, c.Reinforcements, c.Total())
}

// validate panics on nonsensical parameters: the model is configured by
// experiment code, not runtime input.
func (p Params) validate() {
	if p.Nodes <= 0 || p.MessageBytes <= 0 || p.PathHops <= 0 ||
		p.EventInterval <= 0 || p.InterestInterval <= 0 ||
		p.ExploratoryRatio < 0 || p.ExploratoryRatio > 1 {
		panic(fmt.Sprintf("trafficmodel: invalid params %+v", p))
	}
}

// BytesPerEvent returns the modelled bytes sent across all diffusion
// modules per distinct event for the given source count, with or without
// in-network aggregation. Sources generate synchronized events, so the
// distinct-event rate equals the per-source rate, as in Figure 8.
func (p Params) BytesPerEvent(sources int, aggregated bool) Components {
	p.validate()
	if sources <= 0 {
		panic("trafficmodel: sources must be positive")
	}
	msg := float64(p.MessageBytes)
	n := float64(p.Nodes)
	l := float64(p.PathHops)
	s := float64(sources)
	if aggregated {
		// Aggregation collapses the event streams into a single flow at
		// the first hop; the paper models the result as the one-source
		// cost, flat in the number of sources.
		s = 1
	}
	// Interest floods amortized over the events between refreshes.
	interests := msg * n * float64(p.EventInterval) / float64(p.InterestInterval)
	// Exploratory data floods network-wide, one flood per (surviving)
	// source, for the exploratory fraction of events.
	exploratory := msg * p.ExploratoryRatio * n * s
	// Plain data travels the reinforced path per surviving source.
	data := msg * (1 - p.ExploratoryRatio) * l * s
	// Reinforcements retrace the path once per exploratory round.
	reinforcements := msg * p.ExploratoryRatio * l * s
	return Components{
		Interests:      interests,
		Exploratory:    exploratory,
		Data:           data,
		Reinforcements: reinforcements,
	}
}

// Savings returns the modelled fractional traffic reduction from
// aggregation at the given source count (the paper's simulation-vs-testbed
// discussion compares this across exploratory ratios).
func (p Params) Savings(sources int) float64 {
	with := p.BytesPerEvent(sources, true).Total()
	without := p.BytesPerEvent(sources, false).Total()
	return 1 - with/without
}
