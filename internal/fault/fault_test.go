package fault

import (
	"testing"
	"time"

	"diffusion/internal/sim"
)

// fakeTarget records fault calls and serves a scripted energy ramp.
type fakeTarget struct {
	crashes, reboots []uint32
	links            map[[2]uint32]bool
	energy           func(id uint32) float64
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{links: map[[2]uint32]bool{}}
}

func (f *fakeTarget) CrashNode(id uint32)  { f.crashes = append(f.crashes, id) }
func (f *fakeTarget) RebootNode(id uint32) { f.reboots = append(f.reboots, id) }
func (f *fakeTarget) SetLinkDown(a, b uint32, down bool) {
	f.links[[2]uint32{a, b}] = down
}
func (f *fakeTarget) NodeEnergy(id uint32) float64 {
	if f.energy == nil {
		return 0
	}
	return f.energy(id)
}

func TestScriptedCrashAndReboot(t *testing.T) {
	s := sim.New(1)
	ft := newFakeTarget()
	in := New(s, s.Rand(), ft)

	in.CrashFor(10*time.Second, 7, 30*time.Second)
	s.RunUntil(15 * time.Second)
	if len(ft.crashes) != 1 || ft.crashes[0] != 7 {
		t.Fatalf("crashes = %v", ft.crashes)
	}
	if !in.down[7] {
		t.Error("node 7 should be down")
	}
	s.RunUntil(time.Minute)
	if len(ft.reboots) != 1 || ft.reboots[0] != 7 {
		t.Fatalf("reboots = %v", ft.reboots)
	}
	if in.down[7] {
		t.Error("node 7 should be back up")
	}

	evs := in.events
	if len(evs) != 2 || evs[0].Kind != NodeDown || evs[1].Kind != NodeUp {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].At != 10*time.Second || evs[1].At != 40*time.Second {
		t.Errorf("event times = %v, %v", evs[0].At, evs[1].At)
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	s := sim.New(1)
	ft := newFakeTarget()
	in := New(s, s.Rand(), ft)
	in.CrashAt(time.Second, 3)
	in.CrashAt(2*time.Second, 3)
	in.RebootAt(3*time.Second, 3)
	in.RebootAt(4*time.Second, 3)
	s.RunUntil(5 * time.Second)
	if len(ft.crashes) != 1 || len(ft.reboots) != 1 {
		t.Errorf("crashes=%v reboots=%v; double faults must be no-ops", ft.crashes, ft.reboots)
	}
}

func TestLinkBlackoutAndPartition(t *testing.T) {
	s := sim.New(1)
	ft := newFakeTarget()
	in := New(s, s.Rand(), ft)

	in.LinkDownAt(time.Second, 1, 2)
	in.LinkUpAt(2*time.Second, 1, 2)
	in.PartitionAt(3*time.Second, []uint32{1, 2}, []uint32{3})
	in.HealAt(4*time.Second, []uint32{1, 2}, []uint32{3})

	s.RunUntil(90 * time.Second / 60) // 1.5 s: blackout active
	if !ft.links[[2]uint32{1, 2}] || !ft.links[[2]uint32{2, 1}] {
		t.Error("link 1<->2 should be down in both directions")
	}
	s.RunUntil(3500 * time.Millisecond) // partition active
	if ft.links[[2]uint32{1, 2}] {
		t.Error("link 1<->2 should be restored")
	}
	for _, k := range [][2]uint32{{1, 3}, {3, 1}, {2, 3}, {3, 2}} {
		if !ft.links[k] {
			t.Errorf("partition link %v should be down", k)
		}
	}
	s.RunUntil(5 * time.Second)
	for k, down := range ft.links {
		if down {
			t.Errorf("link %v still down after heal", k)
		}
	}
	sum := in.Summarize()
	if sum.LinkDowns != 3 || sum.LinkUps != 3 {
		t.Errorf("summary = %v", sum)
	}
}

func TestEnergyDepletionKillsPermanently(t *testing.T) {
	s := sim.New(1)
	ft := newFakeTarget()
	// Energy grows linearly: 1 unit per simulated second.
	ft.energy = func(uint32) float64 { return s.Now().Seconds() }
	in := New(s, s.Rand(), ft)
	in.DepleteEnergy(5, 100, time.Second)
	s.RunUntil(10 * time.Minute)
	if len(ft.crashes) != 1 || ft.crashes[0] != 5 {
		t.Fatalf("crashes = %v", ft.crashes)
	}
	if len(ft.reboots) != 0 {
		t.Errorf("depleted node rebooted: %v", ft.reboots)
	}
	evs := in.events
	if len(evs) != 1 || evs[0].At > 101*time.Second {
		t.Errorf("depletion events = %v (budget 100 at 1 unit/s)", evs)
	}
}

func TestChurnRespectsWindowAndHeals(t *testing.T) {
	s := sim.New(42)
	ft := newFakeTarget()
	in := New(s, s.Rand(), ft)
	cfg := ChurnConfig{
		Start: time.Minute,
		Stop:  11 * time.Minute,
		MTBF:  2 * time.Minute,
		MTTR:  30 * time.Second,
		Nodes: []uint32{1, 2, 3},
	}
	in.Churn(cfg)
	s.RunUntil(12 * time.Minute)

	sum := in.Summarize()
	if sum.NodeDowns == 0 {
		t.Fatal("churn injected no crashes in 10 minutes at MTBF 2m")
	}
	if sum.NodeDowns != sum.NodeUps {
		t.Errorf("unbalanced churn: %v", sum)
	}
	for _, id := range cfg.Nodes {
		if in.down[id] {
			t.Errorf("node %d still down after churn window", id)
		}
	}
	for _, e := range in.events {
		if e.At < cfg.Start {
			t.Errorf("event %v fired before the churn window", e)
		}
		if e.Kind == NodeDown && e.At >= cfg.Stop {
			t.Errorf("crash %v fired after the churn window", e)
		}
	}
}

func TestChurnIsDeterministic(t *testing.T) {
	run := func() []Event {
		s := sim.New(7)
		in := New(s, s.Rand(), newFakeTarget())
		in.Churn(ChurnConfig{
			Start: 0, Stop: 20 * time.Minute,
			MTBF: 3 * time.Minute, MTTR: time.Minute,
			Nodes: []uint32{1, 2, 3, 4},
		})
		s.RunUntil(20 * time.Minute)
		return in.events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestChurnValidation(t *testing.T) {
	s := sim.New(1)
	in := New(s, s.Rand(), newFakeTarget())
	for _, cfg := range []ChurnConfig{
		{Start: 0, Stop: time.Minute, MTBF: 0, MTTR: time.Second, Nodes: []uint32{1}},
		{Start: time.Minute, Stop: time.Minute, MTBF: time.Second, MTTR: time.Second, Nodes: []uint32{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Churn(%+v) did not panic", cfg)
				}
			}()
			in.Churn(cfg)
		}()
	}
}
