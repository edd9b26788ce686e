package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// One fan-out over nodes 1, 3 and 5 among everything else that can share
// its timestamp: each sub-event runs where its own Event would have.
func TestFanoutRunsInCanonicalPosition(t *testing.T) {
	k := newTestEngine(7, 5)
	var order []string
	log := func(tag string) func() { return func() { order = append(order, tag) } }
	var f Fanout
	f.Bind(func(i int) {
		order = append(order, fmt.Sprintf("sub %d", i))
		switch i {
		case 0:
			k.Port(1).After(0, log("zero-delay local 1"))
		case 1:
			k.After(0, log("zero-delay global"))
		}
	})
	k.Port(2).After(time.Second, log("local 2"))
	k.Port(1).Join(&f, time.Second)
	k.Port(3).Join(&f, time.Second)
	k.Port(4).After(time.Second, log("local 4"))
	k.Port(5).Join(&f, time.Second)
	k.Port(5).After(time.Second, log("local 5, armed after the join"))
	k.Port(5).ArmRemote(1, bound(log("remote")), time.Second)
	k.After(time.Second, log("global"))
	k.ArmFanout(&f)
	if k.Pending() != 6 {
		t.Errorf("Pending = %d, want 6: a fan-out is one heap entry", k.Pending())
	}
	for k.Step() {
	}
	want := []string{
		"global", "sub 0", "zero-delay local 1", "local 2", "sub 1", "zero-delay global",
		"local 4", "sub 2", "local 5, armed after the join", "remote",
	}
	if !slices.Equal(order, want) {
		t.Errorf("order = %q\nwant    %q", order, want)
	}
}

// The record is idle and empty from the moment its last sub-event starts.
func TestFanoutRearmsFromLastSubEvent(t *testing.T) {
	k := newTestEngine(7, 3)
	var f Fanout
	var got []string
	join := func() {
		for id := uint32(1); id <= 3; id++ {
			k.Port(id).Join(&f, time.Second)
		}
		k.ArmFanout(&f)
	}
	f.Bind(func(i int) {
		got = append(got, fmt.Sprintf("%v/%d", k.Now(), i))
		if i == 2 && k.Now() < 3*time.Second {
			join()
		}
	})
	join()
	for k.Step() {
	}
	if want := "1s/0 1s/1 1s/2 2s/0 2s/1 2s/2 3s/0 3s/1 3s/2"; strings.Join(got, " ") != want {
		t.Errorf("sub-events %v, want %s", got, want)
	}
}

func TestFanoutMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", name)
			}
		}()
		fn()
	}
	k := newTestEngine(1, 3)
	armed := func() *Fanout {
		f := &Fanout{}
		f.Bind(func(int) {})
		k.Port(1).Join(f, time.Second)
		k.Port(2).Join(f, time.Second)
		k.ArmFanout(f)
		return f
	}
	mustPanic("arming a pending fan-out", func() { k.ArmFanout(armed()) })
	mustPanic("joining a pending fan-out", func() { k.Port(3).Join(armed(), time.Second) })
	mustPanic("arming an empty fan-out", func() { k.ArmFanout(&Fanout{}) })
	mustPanic("joining out of node order", func() {
		f := &Fanout{}
		k.Port(2).Join(f, time.Second)
		k.Port(1).Join(f, time.Second)
	})
	mustPanic("joining backwards in time", func() {
		f := &Fanout{}
		k.Port(1).Join(f, time.Second)
		k.Port(2).Join(f, time.Millisecond)
	})
	mustPanic("joining mid-run", func() {
		f := &Fanout{}
		f.Bind(func(i int) {
			if i == 0 {
				k.Port(3).Join(f, time.Second)
			}
		})
		k.Port(1).Join(f, 0)
		k.Port(2).Join(f, 0)
		k.ArmFanout(f)
		k.Step()
	})
}

// fanoutSchedule runs one seeded random schedule and returns its execution
// transcript. Frames begin and end on a one-millisecond grid shared with
// ordinary locals on every node and globals, so nearly every end of frame
// ties with other nodes' events and with other frames' ends; sub-events arm
// zero-delay locals and globals, and cancel ordinary events (pending ones
// at a later node included); chunked drives the run with one RunUntil per
// grid point, each some fan-out's timestamp, and a frame may end a
// millisecond later at its higher-numbered receivers, so boundaries fall
// inside a fan-out too. With fan unset every key is its own Event armed at
// the call site where the fan-out joins it: the oracle.
func fanoutSchedule(seed int64, fan, chunked bool) []string {
	const nodes = 6
	k := newTestEngine(seed, nodes)
	rng := k.DeriveRand(99)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var out []string
	log := func(node uint32, tag string) {
		out = append(out, fmt.Sprintf("%v n%d %s", k.Now(), node, tag))
	}
	var victims []*Event
	for i := 0; i < 40; i++ {
		at := ms(1 + rng.Intn(12))
		if rng.Intn(4) == 0 {
			k.After(at, func() { log(0, "global") })
			continue
		}
		id, tag := uint32(1+rng.Intn(nodes)), fmt.Sprintf("local %d", i)
		e := bound(func() { log(id, tag) })
		k.Port(id).Arm(e, at)
		victims = append(victims, e)
	}
	for fr := 0; fr < 12; fr++ {
		fr, from := fr, uint32(1+rng.Intn(nodes))
		start, air := ms(rng.Intn(8)), ms(1+rng.Intn(4))
		var audience []uint32
		var delay []time.Duration // mostly one timestamp; it may only grow with the node ID
		for id := uint32(1); id <= nodes; id++ {
			if id != from && rng.Intn(3) > 0 {
				audience = append(audience, id)
				delay = append(delay, air)
				air += ms(rng.Intn(4) / 3)
			}
		}
		if len(audience) == 0 {
			continue
		}
		sub := func(i int) {
			id := audience[i]
			p := k.Port(id)
			log(id, fmt.Sprintf("end %d.%d", fr, i))
			switch p.Rand().Intn(8) {
			case 0, 1:
				p.After(0, func() { log(id, "zero-delay local") })
			case 2:
				k.After(0, func() { log(0, "zero-delay global") })
			case 3, 4:
				v := victims[p.Rand().Intn(len(victims))]
				log(id, fmt.Sprintf("cancel %v", v.Cancel()))
			}
		}
		f := &Fanout{}
		f.Bind(sub)
		begin := func() {
			for i, id := range audience {
				if fan {
					k.Port(id).Join(f, delay[i])
				} else {
					i := i
					k.Port(id).Arm(bound(func() { sub(i) }), delay[i])
				}
			}
			if fan {
				k.ArmFanout(f)
			}
		}
		k.Port(from).After(start, func() { k.Port(from).ArmRemote(audience[0], bound(begin), 0) })
	}
	if !chunked {
		for k.Step() {
		}
		return out
	}
	for t := ms(1); t <= ms(20); t += ms(1) {
		k.RunUntil(t)
		out = append(out, fmt.Sprintf("-- RunUntil(%v), next at %v", t, nextAt(k)))
	}
	return out
}

func nextAt(k *Engine) string {
	at, ok := headAt(k)
	if !ok {
		return "none"
	}
	return at.String()
}

// headAt returns the time of the heap's head, the next event to run, or
// ok=false when nothing is pending.
func headAt(k *Engine) (at time.Duration, ok bool) {
	if ev := k.events.peek(); ev != nil {
		return ev.key.at, true
	}
	return 0, false
}

// Fan-out ≡ one Event per key, over 600 seeds × {Step to the end,
// RunUntil per timestamp}.
func TestFanoutMatchesEventPerKeyOracle(t *testing.T) {
	ends := 0
	for seed := int64(1); seed <= 600; seed++ {
		for _, chunked := range []bool{false, true} {
			want := fanoutSchedule(seed, false, chunked)
			got := fanoutSchedule(seed, true, chunked)
			if !slices.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("seed %d chunked=%v: transcripts (%d and %d lines) part at line %d:\n fan-out %q\n oracle  %q",
					seed, chunked, len(got), len(want), i, got[i:min(i+4, len(got))], want[i:min(i+4, len(want))])
			}
			for _, line := range want {
				if strings.Contains(line, " end ") {
					ends++
				}
			}
		}
	}
	if ends < 20000 {
		t.Errorf("only %d sub-events across the schedules: the generator is not exercising the fan-out", ends)
	}
}
