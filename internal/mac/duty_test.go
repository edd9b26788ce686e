package mac

import (
	"testing"
	"time"

	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// dutyPair builds two nodes whose MACs duty-cycle with the given fraction.
func dutyPair(seed int64, duty float64) (*sim.Engine, *Mac, *Mac, *rxLog) {
	s := sim.New(seed)
	ch := radio.NewChannel(s, topo.Line(2, 5), radio.PerfectParams())
	p := DefaultParams()
	p.DutyCycle = duty
	p.CyclePeriod = 500 * time.Millisecond
	l2 := &rxLog{}
	m1 := Attach(s, ch, 1, p, nil)
	m2 := Attach(s, ch, 2, p, l2.handler())
	return s, m1, m2, l2
}

func TestDutyCycleDelivers(t *testing.T) {
	// With a shared schedule, messages still deliver: senders defer to
	// active windows where the receiver is listening.
	s, m1, m2, l2 := dutyPair(1, 0.2)
	for i := 0; i < 20; i++ {
		d := time.Duration(i) * time.Second
		s.After(d, func() { m1.Send(Broadcast, make([]byte, 100)) })
	}
	s.RunUntil(time.Minute)
	if len(l2.payloads) < 18 {
		t.Errorf("duty-cycled delivery %d/20; schedule alignment broken", len(l2.payloads))
	}
	if m1.Stats.SleepDeferrals == 0 {
		t.Error("some sends should have deferred to active windows")
	}
	if m2.Stats.SleepDrops != 0 {
		t.Errorf("aligned schedules should not drop at the receiver: %d", m2.Stats.SleepDrops)
	}
}

func TestDutyCycleWindowFit(t *testing.T) {
	// A fragment near the end of the active window defers rather than
	// straddling into the receiver's sleep.
	s, m1, _, l2 := dutyPair(2, 0.1) // 50ms active, ~26ms per fragment
	m1.Send(Broadcast, make([]byte, 200))
	s.RunUntil(30 * time.Second)
	if len(l2.payloads) != 1 {
		t.Fatalf("long message should deliver across windows: %d", len(l2.payloads))
	}
	if m1.Stats.SleepDeferrals == 0 {
		t.Error("an 8-fragment message cannot fit one 50ms window without deferrals")
	}
}

func TestDutyCycleZeroAndFullAreOff(t *testing.T) {
	for _, duty := range []float64{0, 1} {
		s, m1, _, l2 := dutyPair(3, duty)
		m1.Send(Broadcast, make([]byte, 60))
		s.RunUntil(time.Second)
		if len(l2.payloads) != 1 {
			t.Errorf("duty=%v should behave as always-on", duty)
		}
		if m1.Stats.SleepDeferrals != 0 {
			t.Errorf("duty=%v must not defer", duty)
		}
	}
}

func TestUnsynchronizedSenderLosesFrames(t *testing.T) {
	// A sender that ignores the schedule (duty cycling off) talking to a
	// duty-cycled receiver loses the frames that land in sleep.
	s := sim.New(4)
	ch := radio.NewChannel(s, topo.Line(2, 5), radio.PerfectParams())
	pOn := DefaultParams()
	pOff := DefaultParams()
	pOn.DutyCycle = 0.2
	pOn.CyclePeriod = 500 * time.Millisecond
	l2 := &rxLog{}
	m1 := Attach(s, ch, 1, pOff, nil)
	m2 := Attach(s, ch, 2, pOn, l2.handler())
	for i := 0; i < 50; i++ {
		d := time.Duration(i)*time.Second + time.Duration(i*37)*time.Millisecond
		s.After(d, func() { m1.Send(Broadcast, make([]byte, 20)) })
	}
	s.RunUntil(2 * time.Minute)
	if m2.Stats.SleepDrops == 0 {
		t.Error("an unsynchronized sender should hit the receiver's sleep")
	}
	if len(l2.payloads) == 0 {
		t.Error("some frames should land in active windows")
	}
	if len(l2.payloads) >= 50 {
		t.Error("delivery should be partial")
	}
}

func TestNegativeDutyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative duty cycle must panic")
		}
	}()
	s := sim.New(5)
	ch := radio.NewChannel(s, topo.Line(2, 5), radio.PerfectParams())
	p := DefaultParams()
	p.DutyCycle = -0.5
	Attach(s, ch, 1, p, nil)
}
