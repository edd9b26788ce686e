package experiments

import (
	"fmt"
	"io"
	"time"

	"diffusion"
	"diffusion/internal/stats"
)

// Fig9Config parameterizes the nested-query experiment (paper Figure 9):
// the user at testbed node 39 wants acoustic data correlated with light
// sensors; the audio sensor is node 20 (one hop from the lights, two hops
// from the user); 1, 2 or 4 light sensors at nodes 16, 25, 22 and 13
// toggle simulated state every minute on the minute and report state every
// 2 seconds; three 20-minute runs per point.
type Fig9Config struct {
	Seeds          []int64
	Duration       time.Duration
	SensorCounts   []int
	ReportInterval time.Duration
	ToggleInterval time.Duration
	// PayloadBytes pads light and audio messages to the paper's ~100 B.
	PayloadBytes int
}

// DefaultFig9 returns the paper's configuration.
func DefaultFig9() Fig9Config {
	return Fig9Config{
		Seeds:          []int64{1, 2, 3},
		Duration:       20 * time.Minute,
		SensorCounts:   []int{1, 2, 4},
		ReportInterval: 2 * time.Second,
		ToggleInterval: time.Minute,
		PayloadBytes:   20,
	}
}

// Fig9Point is one bar of Figure 9.
type Fig9Point struct {
	Sensors int
	Nested  bool
	// Delivered is the percentage of light-change events that resulted in
	// audio data delivered to the user.
	Delivered stats.Summary
}

// RunFig9 runs nested and flat (one-level) variants across sensor counts.
func RunFig9(cfg Fig9Config) []Fig9Point {
	var out []Fig9Point
	for _, nested := range []bool{true, false} {
		for _, sensors := range cfg.SensorCounts {
			out = append(out, RunFig9Point(cfg, sensors, nested))
		}
	}
	return out
}

// RunFig9Point runs one bar of the figure (all seeds at one sensor count
// and query style).
func RunFig9Point(cfg Fig9Config, sensors int, nested bool) Fig9Point {
	s := overSeeds(cfg.Seeds, func(seed int64) []float64 {
		return []float64{runFig9Once(cfg, sensors, nested, seed)}
	})
	return Fig9Point{Sensors: sensors, Nested: nested, Delivered: s[0]}
}

func lightInterest() diffusion.Attributes {
	return diffusion.Attributes{
		diffusion.String(diffusion.KeyType, diffusion.EQ, "light"),
		diffusion.Int32(diffusion.KeyInterval, diffusion.IS, 2000),
	}
}

func lightData() diffusion.Attributes {
	return diffusion.Attributes{diffusion.String(diffusion.KeyType, diffusion.IS, "light")}
}

func audioInterest() diffusion.Attributes {
	return diffusion.Attributes{
		diffusion.String(diffusion.KeyType, diffusion.EQ, "audio"),
	}
}

func audioData() diffusion.Attributes {
	return diffusion.Attributes{diffusion.String(diffusion.KeyType, diffusion.IS, "audio")}
}

// runFig9Once returns the fraction of (light, toggle) events for which
// audio data reached the user.
//
// In the nested variant the audio node sub-tasks the lights directly: it
// detects each sensor's state change from the 2-second reports (one hop)
// and emits one audio message per detected change; the user subscribes to
// audio only. Success requires the light→audio hop and the audio→user
// path to work.
//
// In the flat (one-level) variant the user queries the lights itself
// (three hops) and separately receives audio data; the audio generation is
// schedule-driven, reproducing the paper's accounting of "three or five
// hops for nested or flat queries, respectively". Success requires the
// user to observe the light change and to receive the corresponding audio
// message.
func runFig9Once(cfg Fig9Config, sensors int, nested bool, seed int64) float64 {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     seed,
		Topology: diffusion.TestbedTopology(),
	})
	lights := diffusion.TestbedSources()[:sensors]
	user := net.Node(diffusion.TestbedUser)
	audio := net.Node(diffusion.TestbedAudio)
	payload := make([]byte, cfg.PayloadBytes)

	// Light sensors: simulated state toggles every minute on the minute;
	// reports every 2 s carry (light id, toggle count). The first report
	// after a toggle is the change event itself — a single best-effort
	// message, which is what makes the event chain "three or five hops"
	// of unreliable crossings in the paper's accounting. Later reports
	// re-state the level but are not change events.
	toggles := 0
	lightPubs := make([]diffusion.PublicationHandle, sensors)
	lastReported := make([]int, sensors)
	for i, id := range lights {
		lightPubs[i] = net.Node(id).Publish(lightData())
	}
	net.Every(cfg.ToggleInterval, func() { toggles++ })
	for i, id := range lights {
		i, id := i, id
		net.Every(cfg.ReportInterval, func() {
			change := int32(0)
			if toggles > lastReported[i] {
				lastReported[i] = toggles
				change = 1
			}
			net.Node(id).Send(lightPubs[i], diffusion.Attributes{
				diffusion.Int32(diffusion.KeyInstance, diffusion.IS, int32(id)),
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, int32(toggles)),
				diffusion.Int32(diffusion.KeyCount, diffusion.IS, change),
				diffusion.Blob(diffusion.KeyPayload, diffusion.IS, payload),
			})
		})
	}

	audioPub := audio.Publish(audioData())
	sendAudio := func(lightID, toggle int32) {
		audio.Send(audioPub, diffusion.Attributes{
			diffusion.Int32(diffusion.KeyInstance, diffusion.IS, lightID),
			diffusion.Int32(diffusion.KeySequence, diffusion.IS, toggle),
			diffusion.Blob(diffusion.KeyPayload, diffusion.IS, payload),
		})
	}

	type event struct{ light, toggle int32 }
	audioAtUser := map[event]bool{}
	lightAtUser := map[event]bool{}

	user.Subscribe(audioInterest(), func(m *diffusion.Message) {
		l, ok1 := m.Attrs.FindActual(diffusion.KeyInstance)
		s, ok2 := m.Attrs.FindActual(diffusion.KeySequence)
		if ok1 && ok2 {
			audioAtUser[event{l.Val.Int32(), s.Val.Int32()}] = true
		}
	})

	// changeEvent extracts a change-marked report's (light, toggle) pair.
	changeEvent := func(m *diffusion.Message) (event, bool) {
		l, ok1 := m.Attrs.FindActual(diffusion.KeyInstance)
		s, ok2 := m.Attrs.FindActual(diffusion.KeySequence)
		c, ok3 := m.Attrs.FindActual(diffusion.KeyCount)
		if !ok1 || !ok2 || !ok3 || c.Val.Int32() != 1 || s.Val.Int32() == 0 {
			return event{}, false
		}
		return event{l.Val.Int32(), s.Val.Int32()}, true
	}

	if nested {
		// Audio node sub-tasks the lights (one hop) and triggers on each
		// change report.
		audio.Subscribe(lightInterest(), func(m *diffusion.Message) {
			if ev, ok := changeEvent(m); ok {
				sendAudio(ev.light, ev.toggle)
			}
		})
	} else {
		// Flat: the user watches the lights across the whole network
		// (three hops).
		user.Subscribe(lightInterest(), func(m *diffusion.Message) {
			if ev, ok := changeEvent(m); ok {
				lightAtUser[ev] = true
			}
		})
		// Audio generation is schedule-driven (the toggles are "every
		// minute on the minute"); one audio message per light per toggle.
		net.Every(cfg.ToggleInterval, func() {
			for _, id := range lights {
				sendAudio(int32(id), int32(toggles))
			}
		})
	}

	net.Run(cfg.Duration)

	possible := sensors * toggles
	if possible == 0 {
		return 0
	}
	success := 0
	for _, id := range lights {
		for k := 1; k <= toggles; k++ {
			ev := event{int32(id), int32(k)}
			if nested {
				if audioAtUser[ev] {
					success++
				}
			} else {
				if audioAtUser[ev] && lightAtUser[ev] {
					success++
				}
			}
		}
	}
	return float64(success) / float64(possible)
}

// PrintFig9 renders the figure.
func PrintFig9(w io.Writer, points []Fig9Point) {
	fmt.Fprintln(w, "Figure 9: percentage of audio events successfully delivered to the user")
	fmt.Fprintln(w, "sensors  query    delivered")
	for _, p := range points {
		mode := "1-level"
		if p.Nested {
			mode = "nested "
		}
		fmt.Fprintf(w, "%7d  %s  %5.1f%% ± %4.1f%%\n",
			p.Sensors, mode, 100*p.Delivered.Mean, 100*p.Delivered.CI95)
	}
}
