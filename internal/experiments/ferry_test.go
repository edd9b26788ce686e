package experiments

import (
	"bytes"
	"testing"
	"time"
)

// quickFerry shrinks the scenario while preserving the DTN regime: each
// ferry absence (half a contact period, 30s) still outlasts the 25-second
// gradient lifetime, so baseline soft state fully decays between contacts.
func quickFerry() FerryConfig {
	cfg := DefaultFerry()
	cfg.Seeds = []int64{1, 2}
	cfg.Duration = 6 * time.Minute
	return cfg
}

// TestFerryCustodyDeliversWhereBaselineLoses is the disruption-tolerance
// acceptance check in the simulator: under scheduled disconnection that
// outlasts the gradient lifetime, custody transfer delivers >= 99% of the
// source's events exactly once, while baseline diffusion — with nowhere
// to park data during a blackout — loses a substantial fraction.
func TestFerryCustodyDeliversWhereBaselineLoses(t *testing.T) {
	res := RunFerry(quickFerry())
	for i, c := range res.Custody {
		b := res.Baseline[i]
		if c.Sent == 0 {
			t.Fatalf("seed %d: no events sent", c.Seed)
		}
		if c.Delivery < 0.99 {
			t.Errorf("seed %d: custody delivery %.3f (%d/%d), want >= 0.99",
				c.Seed, c.Delivery, c.Delivered, c.Sent)
		}
		if c.Duplicates != 0 {
			t.Errorf("seed %d: %d duplicate deliveries with custody", c.Seed, c.Duplicates)
		}
		if c.Captured == 0 {
			t.Errorf("seed %d: custody arm never took custody", c.Seed)
		}
		if b.Captured != 0 {
			t.Errorf("seed %d: baseline arm reports %d custody captures", b.Seed, b.Captured)
		}
		if b.Delivery > c.Delivery-0.05 {
			t.Errorf("seed %d: baseline delivery %.3f not clearly below custody %.3f",
				b.Seed, b.Delivery, c.Delivery)
		}
	}
	var out bytes.Buffer
	PrintFerry(&out, res)
	if out.Len() == 0 {
		t.Error("PrintFerry produced no output")
	}
}

// TestFerryDeterministic reruns one seed and requires byte-identical
// results: same sequences delivered, same timestamps, same custody counters.
func TestFerryDeterministic(t *testing.T) {
	cfg := quickFerry()
	cfg.Seeds = []int64{1}
	run := func() string {
		var out bytes.Buffer
		PrintFerry(&out, RunFerry(cfg))
		return out.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("ferry results differ between two runs of one seed:\n--- first\n%s--- second\n%s", a, b)
	}
}
