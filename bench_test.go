// Benchmarks regenerating the paper's evaluation, one per table/figure.
// Custom metrics carry the figures' units (B/event, delivered%,
// ns/match); run with:
//
//	go test -bench=. -benchmem
package diffusion_test

import (
	"testing"
	"time"

	"diffusion"
	"diffusion/internal/attr"
	"diffusion/internal/energy"
	"diffusion/internal/experiments"
	"diffusion/internal/trafficmodel"
)

// BenchmarkFig8Aggregation regenerates Figure 8: bytes sent from all
// diffusion modules per distinct delivered event, with and without
// in-network suppression, for 1 and 4 sources. Each iteration is a
// 10-minute simulated testbed run.
func BenchmarkFig8Aggregation(b *testing.B) {
	for _, bc := range []struct {
		name        string
		sources     int
		suppression bool
	}{
		{"1source/with", 1, true},
		{"1source/without", 1, false},
		{"4sources/with", 4, true},
		{"4sources/without", 4, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := experiments.DefaultFig8()
			cfg.Duration = 10 * time.Minute
			var bytesPerEvent, delivery float64
			for i := 0; i < b.N; i++ {
				cfg.Seeds = []int64{int64(i + 1)}
				points := experiments.RunFig8Point(cfg, bc.sources, bc.suppression)
				bytesPerEvent += points.BytesPerEvent.Mean
				delivery += points.DeliveryRate.Mean
			}
			b.ReportMetric(bytesPerEvent/float64(b.N), "B/event")
			b.ReportMetric(100*delivery/float64(b.N), "delivered%")
		})
	}
}

// BenchmarkFig9Nested regenerates Figure 9: the percentage of light-change
// events delivering audio to the user, nested vs flat queries.
func BenchmarkFig9Nested(b *testing.B) {
	for _, bc := range []struct {
		name    string
		sensors int
		nested  bool
	}{
		{"1sensor/nested", 1, true},
		{"1sensor/flat", 1, false},
		{"4sensors/nested", 4, true},
		{"4sensors/flat", 4, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := experiments.DefaultFig9()
			cfg.Duration = 10 * time.Minute
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg.Seeds = []int64{int64(i + 1)}
				p := experiments.RunFig9Point(cfg, bc.sensors, bc.nested)
				rate += p.Delivered.Mean
			}
			b.ReportMetric(100*rate/float64(b.N), "delivered%")
		})
	}
}

// BenchmarkMatching regenerates Figures 10/11: the cost of the two-way
// match between the paper's interest and data sets as set B grows, for the
// four series. ns/op is the figure's y-axis.
func BenchmarkMatching(b *testing.B) {
	for _, series := range []struct {
		name     string
		matching bool
		mode     string
	}{
		{"match-IS", true, "IS"},
		{"match-EQ", true, "EQ"},
		{"no-match-IS", false, "IS"},
		{"no-match-EQ", false, "EQ"},
	} {
		for _, size := range []int{6, 18, 30} {
			series := series
			b.Run(series.name+"/"+itoa(size), func(b *testing.B) {
				a := experiments.Fig10Interest()
				set := experiments.GrowDataSet(experiments.Fig10Data(series.matching), size, series.mode)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if attr.Match(a, set) != series.matching {
						b.Fatal("unexpected match result")
					}
				}
			})
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [4]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkTrafficModel evaluates the section 6.1 analytic model and
// reports its headline numbers (990 flat aggregated, ~3300 at 4 sources).
func BenchmarkTrafficModel(b *testing.B) {
	p := trafficmodel.Testbed()
	var agg, four float64
	for i := 0; i < b.N; i++ {
		agg = p.BytesPerEvent(4, true).Total()
		four = p.BytesPerEvent(4, false).Total()
	}
	b.ReportMetric(agg, "B/event-agg")
	b.ReportMetric(four, "B/event-noagg")
}

// BenchmarkEnergyModel evaluates the section 6.1 energy model at the
// paper's three duty-cycle points.
func BenchmarkEnergyModel(b *testing.B) {
	r := energy.PaperRatios()
	var f1, f22, f10 float64
	for i := 0; i < b.N; i++ {
		f1 = r.AtDutyCycle(1).ListenFraction()
		f22 = r.AtDutyCycle(0.22).ListenFraction()
		f10 = r.AtDutyCycle(0.10).ListenFraction()
	}
	b.ReportMetric(100*f1, "listen%@d=1")
	b.ReportMetric(100*f22, "listen%@d=0.22")
	b.ReportMetric(100*f10, "listen%@d=0.10")
}

// BenchmarkMessageCodec measures the wire codec on a paper-sized event
// message (the per-hop processing cost below matching).
func BenchmarkMessageCodec(b *testing.B) {
	m := &diffusion.Message{
		Class: diffusion.ClassData,
		Attrs: diffusion.Attributes{
			diffusion.Int32(diffusion.KeyClass, diffusion.IS, diffusion.ClassDataValue),
			diffusion.String(diffusion.KeyTask, diffusion.IS, "surveillance"),
			diffusion.Int32(diffusion.KeySequence, diffusion.IS, 7),
			diffusion.Blob(diffusion.KeyPayload, diffusion.IS, make([]byte, 50)),
		},
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.Marshal()
		}
	})
	enc := m.Marshal()
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := diffusion.UnmarshalMessage(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatedMinute measures simulator throughput: one virtual
// minute of the full 14-node testbed (radio, MAC, diffusion) per
// iteration, with a single active source.
func BenchmarkSimulatedMinute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net := diffusion.NewNetwork(diffusion.NetworkConfig{
			Seed:     int64(i + 1),
			Topology: diffusion.TestbedTopology(),
		})
		net.Node(diffusion.TestbedSink).Subscribe(diffusion.Attributes{
			diffusion.String(diffusion.KeyTask, diffusion.EQ, "surveillance"),
		}, nil)
		src := net.Node(13)
		pub := src.Publish(diffusion.Attributes{
			diffusion.String(diffusion.KeyTask, diffusion.IS, "surveillance"),
		})
		seq := int32(0)
		net.Every(6*time.Second, func() {
			seq++
			src.Send(pub, diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
			})
		})
		net.Run(time.Minute)
	}
}

// BenchmarkTracing measures the cost of causal flight-path tracing on
// the BenchmarkSimulatedMinute workload at three sampling rates: off
// (the only extra work is a skipped nil check plus, at origination
// sites, nothing — the sampling RNG draw is not even taken), 1% (the
// production setting: one RNG draw per origination, spans only for the
// sampled flows), and 100% (every message records a span at every
// layer). The off/minute ratio is the tracing tax on untraced runs and
// must stay within noise of BenchmarkSimulatedMinute; the checked-in
// baseline is BENCH_tracing.json.
func BenchmarkTracing(b *testing.B) {
	for _, bc := range []struct {
		name     string
		sampling float64
	}{
		{"off", 0},
		{"sample-1pct", 0.01},
		{"sample-100pct", 1.0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spans := 0
			for i := 0; i < b.N; i++ {
				net := diffusion.NewNetwork(diffusion.NetworkConfig{
					Seed:          int64(i + 1),
					Topology:      diffusion.TestbedTopology(),
					TraceSampling: bc.sampling,
				})
				net.Node(diffusion.TestbedSink).Subscribe(diffusion.Attributes{
					diffusion.String(diffusion.KeyTask, diffusion.EQ, "surveillance"),
				}, nil)
				src := net.Node(13)
				pub := src.Publish(diffusion.Attributes{
					diffusion.String(diffusion.KeyTask, diffusion.IS, "surveillance"),
				})
				seq := int32(0)
				net.Every(6*time.Second, func() {
					seq++
					src.Send(pub, diffusion.Attributes{
						diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
					})
				})
				net.Run(time.Minute)
				spans += len(net.SpanRecords())
			}
			b.ReportMetric(float64(spans)/float64(b.N), "spans/run")
		})
	}
}
