package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// quickFig8 is a reduced configuration keeping test runtime low while
// preserving the figure's shape.
func quickFig8() Fig8Config {
	cfg := DefaultFig8()
	cfg.Seeds = []int64{1, 2}
	cfg.Duration = 10 * time.Minute
	return cfg
}

func TestSeedList(t *testing.T) {
	s := Size{Seeds: 3}.seeds(nil)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Errorf("seeds: %v", s)
	}
	if def := []int64{7}; len(Size{}.seeds(def)) != 1 {
		t.Error("a zero Size must keep the default seeds")
	}
}

func TestFig8Shape(t *testing.T) {
	points := RunFig8(quickFig8())
	if len(points) != 8 {
		t.Fatalf("expected 8 points, got %d", len(points))
	}
	byKey := map[[2]int]Fig8Point{}
	for _, p := range points {
		k := [2]int{p.Sources, 0}
		if p.Suppression {
			k[1] = 1
		}
		byKey[k] = p
	}
	// Paper shape 1: with one source, suppression and no-suppression are
	// basically identical.
	one := byKey[[2]int{1, 1}].BytesPerEvent.Mean
	oneNo := byKey[[2]int{1, 0}].BytesPerEvent.Mean
	if one == 0 || oneNo == 0 {
		t.Fatal("empty measurements")
	}
	ratio := one / oneNo
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("one source: with=%0.f without=%.0f should be close", one, oneNo)
	}
	// Paper shape 2: without suppression, bytes/event grow with sources.
	if byKey[[2]int{4, 0}].BytesPerEvent.Mean <= byKey[[2]int{1, 0}].BytesPerEvent.Mean {
		t.Error("no-suppression bytes/event must grow with sources")
	}
	// Paper shape 2b: with suppression, bytes/event are flat in sources
	// (§6.1).
	if r := byKey[[2]int{4, 1}].BytesPerEvent.Mean / one; r < 0.7 || r > 1.3 {
		t.Errorf("with suppression, 4 sources cost %.2fx the bytes/event of 1; want flat (±30%%)", r)
	}
	// Paper shape 3: suppression wins clearly at four sources (paper: 42%).
	if sv := Fig8Savings(points, 4); sv < 0.15 {
		t.Errorf("suppression savings at 4 sources = %.0f%%, want substantial", 100*sv)
	}
	// Delivery lands in a plausible band (paper: 55-80%).
	for _, p := range points {
		if p.DeliveryRate.Mean < 0.2 || p.DeliveryRate.Mean > 1.0 {
			t.Errorf("delivery %v at %d sources (supp=%v) implausible",
				p.DeliveryRate, p.Sources, p.Suppression)
		}
	}
	var buf bytes.Buffer
	PrintFig8(&buf, points)
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Error("PrintFig8 output")
	}
}

func TestFig9Shape(t *testing.T) {
	cfg := DefaultFig9()
	cfg.Seeds = []int64{3, 4}
	cfg.Duration = 10 * time.Minute
	points := RunFig9(cfg)
	if len(points) != 6 {
		t.Fatalf("expected 6 points, got %d", len(points))
	}
	get := func(sensors int, nested bool) Fig9Point {
		for _, p := range points {
			if p.Sensors == sensors && p.Nested == nested {
				return p
			}
		}
		t.Fatalf("missing point %d/%v", sensors, nested)
		return Fig9Point{}
	}
	// Paper shape 1: nested delivers more than flat at every sensor count
	// (flat requires light data to cross the network to the user).
	for _, s := range cfg.SensorCounts {
		n, f := get(s, true), get(s, false)
		if n.Delivered.Mean < f.Delivered.Mean-0.05 {
			t.Errorf("%d sensors: nested %.2f should beat flat %.2f",
				s, n.Delivered.Mean, f.Delivered.Mean)
		}
	}
	// Paper shape 2: the nested advantage is material at 4 sensors
	// (paper: 15-30% loss reduction).
	if gap := fig9Gap(points, 4); gap < 0.05 {
		t.Errorf("nested advantage at 4 sensors = %.0f%%, want >5%%", 100*gap)
	}
	// Deliveries are nonzero everywhere.
	for _, p := range points {
		if p.Delivered.Mean <= 0 {
			t.Errorf("zero delivery at %d sensors nested=%v", p.Sensors, p.Nested)
		}
	}
	var buf bytes.Buffer
	PrintFig9(&buf, points)
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("PrintFig9 output")
	}
}

func TestFig11Shape(t *testing.T) {
	cfg := DefaultFig11()
	cfg.Iterations = 100
	cfg.Shuffles = 60
	points := RunFig11(cfg)
	if len(points) != 4*len(cfg.Sizes) {
		t.Fatalf("points: %d", len(points))
	}
	firstEQ, lastEQ := fig11SeriesSlope(points, "match/EQ")
	firstIS, lastIS := fig11SeriesSlope(points, "match/IS")
	_, lastNoEQ := fig11SeriesSlope(points, "no-match/EQ")
	_, lastNoIS := fig11SeriesSlope(points, "no-match/IS")

	// Paper shape 1: matching cost grows with set size.
	if lastEQ <= firstEQ {
		t.Errorf("match/EQ must grow: %.0f -> %.0f ns", firstEQ, lastEQ)
	}
	// Paper shape 2: formal growth (EQ) costs more than actual growth
	// (IS) at the largest size.
	if lastEQ <= lastIS {
		t.Errorf("match/EQ (%.0f ns) should exceed match/IS (%.0f ns) at |B|=30",
			lastEQ, lastIS)
	}
	// Paper shape 3: the no-match series stay below the matching ones and
	// are relatively insensitive to set-B growth.
	if lastNoEQ >= lastEQ || lastNoIS >= lastEQ {
		t.Errorf("no-match (%.0f/%.0f ns) should be cheaper than match/EQ (%.0f ns)",
			lastNoEQ, lastNoIS, lastEQ)
	}
	// Paper shape 4: the cost of actual-growth also rises (attributes are
	// examined even if not searched).
	if lastIS < firstIS*0.8 {
		t.Errorf("match/IS should not shrink: %.0f -> %.0f ns", firstIS, lastIS)
	}
	var buf bytes.Buffer
	PrintFig11(&buf, points)
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Error("PrintFig11 output")
	}
}

func TestGrowDataSet(t *testing.T) {
	base := Fig10Data(true)
	g := GrowDataSet(base, 30, "IS")
	if len(g) != 30 {
		t.Errorf("grown to %d", len(g))
	}
	if len(base) != 6 {
		t.Error("GrowDataSet must not mutate the base")
	}
	g2 := GrowDataSet(base, 3, "EQ")
	if len(g2) != 6 {
		t.Error("growth never shrinks below the base")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad growth mode must panic")
		}
	}()
	GrowDataSet(base, 10, "XX")
}

func TestTablePrinters(t *testing.T) {
	var buf bytes.Buffer
	PrintTrafficModel(&buf)
	if !strings.Contains(buf.String(), "990") && !strings.Contains(buf.String(), "991") {
		t.Errorf("traffic model should show ~990 B/event:\n%s", buf.String())
	}
	buf.Reset()
	PrintEnergyModel(&buf)
	if !strings.Contains(buf.String(), "duty-cycle") {
		t.Error("energy table output")
	}
	buf.Reset()
	PrintMicroFootprint(&buf)
	if !strings.Contains(buf.String(), "106") {
		t.Error("micro table should cite the paper budget")
	}
}

func TestExploratorySweep(t *testing.T) {
	points := RunExploratorySweep([]int64{1}, 10*time.Minute, []int{2, 20})
	if len(points) != 2 {
		t.Fatal("sweep size")
	}
	// In this system suppression removes whole redundant exploratory
	// floods, so savings are largest when exploratory messages are
	// frequent (1-in-2) and shrink as they thin out (1-in-20).
	if points[0].Savings <= points[1].Savings {
		t.Errorf("flood suppression should dominate savings: %v", points)
	}
	var buf bytes.Buffer
	PrintExploratorySweep(&buf, points)
	if buf.Len() == 0 {
		t.Error("print output")
	}
}

func TestAsymmetrySweep(t *testing.T) {
	points := RunAsymmetrySweep([]int64{1, 2}, 10*time.Minute, []float64{0, 4})
	if len(points) != 2 {
		t.Fatal("sweep size")
	}
	// Strong asymmetry must hurt delivery.
	if points[1].Delivery.Mean >= points[0].Delivery.Mean {
		t.Errorf("asymmetry should reduce delivery: sym=%.2f asym=%.2f",
			points[0].Delivery.Mean, points[1].Delivery.Mean)
	}
	var buf bytes.Buffer
	PrintAsymmetrySweep(&buf, points)
	if buf.Len() == 0 {
		t.Error("print output")
	}
}

func TestNegRFAblation(t *testing.T) {
	points := RunNegRFAblation([]int64{1, 2}, 10*time.Minute)
	if len(points) != 2 {
		t.Fatal("ablation size")
	}
	var on, off NegRFPoint
	for _, p := range points {
		if p.Enabled {
			on = p
		} else {
			off = p
		}
	}
	// Without teardown, duplicate receptions should not drop below the
	// enabled case (redundant paths persist).
	if off.Duplicates.Mean < on.Duplicates.Mean*0.8 {
		t.Errorf("disabling negative reinforcement should not reduce duplicates: on=%.0f off=%.0f",
			on.Duplicates.Mean, off.Duplicates.Mean)
	}
	var buf bytes.Buffer
	PrintNegRFAblation(&buf, points)
	if buf.Len() == 0 {
		t.Error("print output")
	}
}

func TestDutyCycleSweep(t *testing.T) {
	points := RunDutyCycleSweep([]int64{1, 2}, 10*time.Minute, []float64{1.0, 0.22, 0.10})
	if len(points) != 3 {
		t.Fatal("sweep size")
	}
	full, mid, low := points[0], points[1], points[2]
	// The paper's 22% point: roughly half the energy spent listening, and
	// a large energy-per-event saving over the always-on radio.
	if mid.EnergyPerEvent.Mean >= full.EnergyPerEvent.Mean*0.7 {
		t.Errorf("d=0.22 should save energy/event: d=1 %.0f vs d=0.22 %.0f",
			full.EnergyPerEvent.Mean, mid.EnergyPerEvent.Mean)
	}
	// Listening dominates at d=1 (the paper's "completely dominated").
	if full.ListenShare.Mean < 0.7 {
		t.Errorf("at d=1 listening should dominate: %.2f", full.ListenShare.Mean)
	}
	if mid.ListenShare.Mean >= full.ListenShare.Mean {
		t.Error("listen share must fall with the duty cycle")
	}
	// Sleeping costs delivery; at d=0.10 the active windows no longer
	// carry the workload (a capacity effect the closed-form analysis
	// cannot see).
	if mid.Delivery.Mean >= full.Delivery.Mean {
		t.Error("duty cycling should cost some delivery")
	}
	if low.Delivery.Mean >= mid.Delivery.Mean {
		t.Error("d=0.10 should fall below the workload's capacity")
	}
	var buf bytes.Buffer
	PrintDutyCycleSweep(&buf, points)
	if buf.Len() == 0 {
		t.Error("print output")
	}
}

func TestScaleSweep(t *testing.T) {
	points := RunScaleSweep([]int64{1}, 10*time.Minute, []int{3, 5})
	if len(points) != 2 {
		t.Fatal("sweep size")
	}
	small, big := points[0], points[1]
	if small.Nodes != 9 || big.Nodes != 25 {
		t.Fatalf("grid sizes: %+v", points)
	}
	if small.Delivery.Mean <= 0 || big.Delivery.Mean <= 0 {
		t.Error("both grids must deliver")
	}
	// Per-node cost should not blow up with network size (the essence of
	// the scalability claim): allow it to at most double from 9 to 25
	// nodes.
	if big.BytesPerNode.Mean > 2*small.BytesPerNode.Mean {
		t.Errorf("per-node bytes should stay roughly flat: 9 nodes %.0f vs 25 nodes %.0f",
			small.BytesPerNode.Mean, big.BytesPerNode.Mean)
	}
	if big.PathHops <= small.PathHops {
		t.Error("bigger grid should have longer paths")
	}
	var buf bytes.Buffer
	PrintScaleSweep(&buf, points)
	if buf.Len() == 0 {
		t.Error("print output")
	}
}

func TestPushPull(t *testing.T) {
	points := RunPushPull([]int64{1, 2}, 10*time.Minute, []int{1, 4})
	if len(points) != 4 {
		t.Fatal("sweep size")
	}
	get := func(sinks int, push bool) PushPullPoint {
		for _, p := range points {
			if p.Sinks == sinks && p.Push == push {
				return p
			}
		}
		t.Fatalf("missing %d/%v", sinks, push)
		return PushPullPoint{}
	}
	for _, p := range points {
		if p.Delivery.Mean <= 0 {
			t.Errorf("no delivery at %d sinks push=%v", p.Sinks, p.Push)
		}
	}
	// Push's relative cost advantage should grow with the sink count:
	// compare the push/pull bytes-per-delivery ratio at 1 vs 4 sinks.
	r1 := get(1, true).BytesPerDelivery.Mean / get(1, false).BytesPerDelivery.Mean
	r4 := get(4, true).BytesPerDelivery.Mean / get(4, false).BytesPerDelivery.Mean
	if r4 >= r1 {
		t.Errorf("push should amortize better with more sinks: ratio@1=%.2f ratio@4=%.2f", r1, r4)
	}
	var buf bytes.Buffer
	PrintPushPull(&buf, points)
	if buf.Len() == 0 {
		t.Error("print output")
	}
}

func TestLatencyClaim(t *testing.T) {
	window := 500 * time.Millisecond
	points := RunLatency([]int64{1, 2}, 10*time.Minute, window)
	if len(points) != 3 {
		t.Fatal("three modes")
	}
	byMode := map[string]LatencyPoint{}
	for _, p := range points {
		byMode[p.Mode] = p
		if p.Latency.N == 0 {
			t.Fatalf("mode %s measured no events", p.Mode)
		}
	}
	none, supp, count := byMode["none"], byMode["suppression"], byMode["counting"]
	// The paper's claim: pass-first suppression does not add latency.
	if supp.Latency.Mean > none.Latency.Mean+0.15 {
		t.Errorf("suppression should be latency-free: none=%.3fs supp=%.3fs",
			none.Latency.Mean, supp.Latency.Mean)
	}
	// Delaying aggregation adds roughly its window per traversed hop; at
	// minimum it must be clearly slower than suppression.
	if count.Latency.Mean < supp.Latency.Mean+float64(window)/float64(time.Second)/2 {
		t.Errorf("counting aggregation should add latency: supp=%.3fs count=%.3fs",
			supp.Latency.Mean, count.Latency.Mean)
	}
	var buf bytes.Buffer
	PrintLatency(&buf, points, window)
	if buf.Len() == 0 {
		t.Error("print output")
	}
}

func TestBreakdown(t *testing.T) {
	points := RunBreakdown([]int64{1, 2}, 15*time.Minute, 4)
	if len(points) != 2 {
		t.Fatal("two configurations")
	}
	var with, without BreakdownPoint
	for _, p := range points {
		if p.Suppression {
			with = p
		} else {
			without = p
		}
	}
	// The model's shape: plain data dominates without suppression, and
	// suppression's savings come out of the data and exploratory shares
	// while interests cost the same either way.
	if without.Data.Mean <= without.Interests.Mean {
		t.Errorf("plain data should dominate interests without suppression: %+v", without)
	}
	if with.Data.Mean >= without.Data.Mean {
		t.Errorf("suppression should cut the data share: with=%.0f without=%.0f",
			with.Data.Mean, without.Data.Mean)
	}
	ratio := with.Interests.Mean / without.Interests.Mean
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("interest share should be roughly unchanged: ratio %.2f", ratio)
	}
	var buf bytes.Buffer
	PrintBreakdown(&buf, points)
	if !strings.Contains(buf.String(), "model:") {
		t.Error("print should include the model rows")
	}
}

func TestCaptureSweep(t *testing.T) {
	points := RunCaptureSweep([]int64{1, 2}, 10*time.Minute, []float64{0, 0.85})
	if len(points) != 2 {
		t.Fatal("sweep size")
	}
	// Capture should clearly improve delivery under the 4-source load.
	if points[1].Delivery.Mean <= points[0].Delivery.Mean {
		t.Errorf("capture should help under contention: off=%.2f on=%.2f",
			points[0].Delivery.Mean, points[1].Delivery.Mean)
	}
	var buf bytes.Buffer
	PrintCaptureSweep(&buf, points)
	if buf.Len() == 0 {
		t.Error("print output")
	}
}

// fig9Gap returns nested minus flat delivery at the given sensor count
// (the paper reports nested queries reduce loss rates by 15-30%).
func fig9Gap(points []Fig9Point, sensors int) float64 {
	var nested, flat float64
	for _, p := range points {
		if p.Sensors != sensors {
			continue
		}
		if p.Nested {
			nested = p.Delivered.Mean
		} else {
			flat = p.Delivered.Mean
		}
	}
	return nested - flat
}

// fig11SeriesSlope returns (first, last) ns/match for one series, letting
// callers check growth shape.
func fig11SeriesSlope(points []Fig11Point, series string) (first, last float64) {
	got := false
	for _, p := range points {
		if p.Series != series {
			continue
		}
		if !got {
			first = p.NsPerMatch
			got = true
		}
		last = p.NsPerMatch
	}
	return
}
