package trafficmodel

import (
	"math"
	"testing"
	"time"
)

func TestPaperEndpoints(t *testing.T) {
	p := Testbed()
	// "Aggregation to provide a flat 990B/event."
	agg := p.BytesPerEvent(1, true).Total()
	if math.Abs(agg-990) > 25 {
		t.Errorf("aggregated bytes/event = %.0f, paper predicts 990", agg)
	}
	// "990 ... without aggregation" at one source (identical to the
	// aggregated case).
	one := p.BytesPerEvent(1, false).Total()
	if math.Abs(one-agg) > 1e-9 {
		t.Errorf("one source: agg %.0f vs no-agg %.0f must coincide", agg, one)
	}
	// "to 3289B/event ... as the number of sources rise ... to 4". The
	// paper's exact accounting is unspecified; we accept within 5%.
	four := p.BytesPerEvent(4, false).Total()
	if math.Abs(four-3289)/3289 > 0.05 {
		t.Errorf("4-source no-agg = %.0f, paper predicts 3289 (±5%%)", four)
	}
}

func TestAggregatedFlat(t *testing.T) {
	p := Testbed()
	base := p.BytesPerEvent(1, true).Total()
	for s := 2; s <= 8; s++ {
		if v := p.BytesPerEvent(s, true).Total(); v != base {
			t.Errorf("aggregated cost at %d sources = %.0f, want flat %.0f", s, v, base)
		}
	}
}

func TestNoAggregationGrowsLinearly(t *testing.T) {
	p := Testbed()
	series := bytesSeries(p, 4, false)
	for i := 1; i < len(series); i++ {
		if series[i] <= series[i-1] {
			t.Fatalf("no-agg series must increase: %v", series)
		}
	}
	// The per-source increments are constant (linear growth).
	d1 := series[1] - series[0]
	d2 := series[3] - series[2]
	if math.Abs(d1-d2) > 1e-9 {
		t.Errorf("increments differ: %v vs %v", d1, d2)
	}
}

func TestSavingsGrowWithSources(t *testing.T) {
	p := Testbed()
	prev := p.Savings(1)
	if prev != 0 {
		t.Errorf("no savings possible with one source, got %.2f", prev)
	}
	for s := 2; s <= 5; s++ {
		sv := p.Savings(s)
		if sv <= prev {
			t.Fatalf("savings must grow with sources: %d -> %.3f (prev %.3f)", s, sv, prev)
		}
		prev = sv
	}
	// At 4 sources the model predicts roughly 70% savings (the measured
	// 42% is lower because of MAC collisions, section 6.1).
	if sv := p.Savings(4); sv < 0.6 || sv > 0.8 {
		t.Errorf("model savings at 4 sources = %.2f, expect ~0.7", sv)
	}
}

// TestSimulationRatioExplainsGap reproduces the section 6.1 explanation:
// with the simulation's 1:100 exploratory:data ratio, aggregation savings
// approach the 3-5x of [23], while the testbed's 1:10 ratio caps them
// near 1.7-3x.
func TestSimulationRatioExplainsGap(t *testing.T) {
	sim, tb := ns2Simulation(), Testbed()
	simFactor := sim.BytesPerEvent(4, false).Total() / sim.BytesPerEvent(4, true).Total()
	tbFactor := tb.BytesPerEvent(4, false).Total() / tb.BytesPerEvent(4, true).Total()
	if simFactor <= tbFactor {
		t.Errorf("simulation ratio should amplify savings: sim %.2fx vs testbed %.2fx",
			simFactor, tbFactor)
	}
	if simFactor < 3 {
		t.Errorf("simulation-parameter savings factor %.2fx, paper reports 3-5x", simFactor)
	}
}

func TestBreakdownComponents(t *testing.T) {
	p := Testbed()
	c := p.BytesPerEvent(2, false)
	if c.Total() <= 0 {
		t.Fatal("total must be positive")
	}
	sum := c.Interests + c.Exploratory + c.Data + c.Reinforcements
	if math.Abs(sum-c.Total()) > 1e-9 {
		t.Error("Total must equal the component sum")
	}
	// Plain data dominates on the testbed parameters.
	if c.Data <= c.Interests || c.Data <= c.Reinforcements {
		t.Errorf("data should dominate: %+v", c)
	}
	if c.String() == "" {
		t.Error("String")
	}
}

func TestValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero nodes": func() {
			(Params{MessageBytes: 1, PathHops: 1, EventInterval: 1, InterestInterval: 1}).BytesPerEvent(1, false)
		},
		"zero sources": func() { Testbed().BytesPerEvent(0, false) },
		"bad ratio": func() {
			p := Testbed()
			p.ExploratoryRatio = 2
			p.BytesPerEvent(1, false)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

// ns2Simulation returns the parameters of the paper's earlier ns-2 study
// ([23]: exploratory every 50 s, data every 0.5 s, 64-byte messages), used
// by the section 6.1 discussion of why simulation showed 3-5x savings but
// the testbed only 1.7x: the exploratory:data ratio is 1:100 instead of
// 1:10.
func ns2Simulation() Params {
	return Params{
		Nodes:            50,
		MessageBytes:     64,
		PathHops:         5,
		EventInterval:    500 * time.Millisecond,
		InterestInterval: 60 * time.Second,
		ExploratoryRatio: 0.01,
	}
}

// bytesSeries returns bytes/event for sources 1..maxSources, matching the
// Figure 8 x-axis.
func bytesSeries(p Params, maxSources int, aggregated bool) []float64 {
	out := make([]float64, maxSources)
	for s := 1; s <= maxSources; s++ {
		out[s-1] = p.BytesPerEvent(s, aggregated).Total()
	}
	return out
}
