package fault

import (
	"slices"
	"strings"
	"testing"
	"time"

	"diffusion/internal/sim"
)

// fakeTarget logs each fault call that changes its state as an event
// stamped by clock, as the network's trace records them.
type fakeTarget struct {
	clock sim.Clock
	down  map[uint32]bool
	log   []Event
}

func newFakeTarget(clock sim.Clock) *fakeTarget {
	return &fakeTarget{clock: clock, down: map[uint32]bool{}}
}

func (f *fakeTarget) note(k Kind, node, peer uint32) {
	f.log = append(f.log, Event{At: f.clock.Now(), Kind: k, Node: node, Peer: peer})
}

func (f *fakeTarget) CrashNode(id uint32)     { f.down[id] = true; f.note(NodeDown, id, 0) }
func (f *fakeTarget) RebootNode(id uint32)    { delete(f.down, id); f.note(NodeUp, id, 0) }
func (f *fakeTarget) NodeDown(id uint32) bool { return f.down[id] }
func (f *fakeTarget) SetLinkDown(a, b uint32, down bool) {
	if down {
		f.note(LinkDown, a, b)
	} else {
		f.note(LinkUp, a, b)
	}
}

// mustParse parses schedule lines, failing the test on any error.
func mustParse(t *testing.T, lines ...string) []Event {
	t.Helper()
	evs := make([]Event, len(lines))
	for i, line := range lines {
		e, err := Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		evs[i] = e
	}
	return evs
}

func TestParseAndStringRoundTrip(t *testing.T) {
	for _, e := range []Event{
		{At: 10 * time.Second, Kind: NodeDown, Node: 7},
		{At: 40 * time.Second, Kind: NodeUp, Node: 7},
		{At: 90 * time.Second, Kind: LinkDown, Node: 2, Peer: 3},
		{At: 150*time.Second + time.Nanosecond, Kind: LinkUp, Node: 3, Peer: 2},
		{At: 0, Kind: NodeDown, Node: 4294967295},
	} {
		got, err := Parse(e.String())
		if err != nil || got != e {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", e.String(), got, err, e)
		}
	}
	for line, want := range map[string]string{
		"crash node 2 at 30s":      "crash node 2 at 30s",
		"reboot node 2 at 90s":     "reboot node 2 at 1m30s",
		"link 2<->3 down at 1m30s": "link 2<->3 down at 1m30s",
		"  link 3<->2   up at 2m ": "link 3<->2 up at 2m0s",
	} {
		if e, err := Parse(line); err != nil || e.String() != want {
			t.Errorf("Parse(%q).String() = %q, %v; want %q", line, e.String(), err, want)
		}
	}
}

func TestParseRejectsMalformedLines(t *testing.T) {
	for line, why := range map[string]string{
		"":                             "want",
		"custody-split node 2 at 1m":   `unknown verb "custody-split"`,
		"partition 1,2 3 at 1m":        `unknown verb "partition"`,
		"crash node 0 at 1m":           `bad node ID "0"`,
		"crash node two at 1m":         `bad node ID "two"`,
		"crash node -2 at 1m":          `bad node ID "-2"`,
		"reboot node 4294967296 at 1m": `bad node ID "4294967296"`,
		"link 2 down at 1m":            "a link names two ends",
		"link 2<-> down at 1m":         `bad node ID ""`,
		"link <->3 up at 1m":           `bad node ID ""`,
		"link 2<->0 up at 1m":          `bad node ID "0"`,
		"crash node 2 at -1s":          `bad time "-1s"`,
		"crash node 2 at soon":         `bad time "soon"`,
		"crash node 2 at 10":           `bad time "10"`,
		"crash node 2":                 "want",
		"crash node 2 at 1m for 30s":   "want",
		"link 2<->3 sideways at 1m":    "want",
		"reboot 2 at 1m":               "want",
	} {
		_, err := Parse(line)
		if err == nil || !strings.Contains(err.Error(), why) {
			t.Errorf("Parse(%q) error %v, want one naming %s", line, err, why)
		}
	}
}

func TestScriptedCrashAndReboot(t *testing.T) {
	s := sim.New(1)
	ft := newFakeTarget(s)
	in := New(s, s.Rand(), ft)

	in.Schedule(mustParse(t, "crash node 7 at 10s", "reboot node 7 at 40s")...)
	s.RunUntil(15 * time.Second)
	if !ft.down[7] {
		t.Error("node 7 should be down")
	}
	s.RunUntil(time.Minute)
	if ft.down[7] {
		t.Error("node 7 should be back up")
	}
	want := []Event{{At: 10 * time.Second, Kind: NodeDown, Node: 7}, {At: 40 * time.Second, Kind: NodeUp, Node: 7}}
	if !slices.Equal(ft.log, want) {
		t.Fatalf("fired %v, want %v", ft.log, want)
	}
	if sum := in.Summarize(); sum != (Summary{NodeDown: 1, NodeUp: 1}) {
		t.Errorf("summary = %v", sum)
	}
}

func TestScheduleFiresADueEventAtOnce(t *testing.T) {
	s := sim.New(1)
	ft := newFakeTarget(s)
	in := New(s, s.Rand(), ft)
	s.RunUntil(time.Minute)
	in.Schedule(Event{At: time.Minute, Kind: NodeDown, Node: 3})
	if !ft.down[3] {
		t.Error("a crash due now did not fire within Schedule")
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	s := sim.New(1)
	ft := newFakeTarget(s)
	in := New(s, s.Rand(), ft)
	in.Schedule(mustParse(t,
		"crash node 3 at 1s", "crash node 3 at 2s",
		"reboot node 3 at 3s", "reboot node 3 at 4s",
		"reboot node 5 at 5s")...)
	s.RunUntil(6 * time.Second)
	if len(ft.log) != 2 || in.Summarize() != (Summary{NodeDown: 1, NodeUp: 1}) {
		t.Errorf("fired %v, summary %v; double faults must be no-ops", ft.log, in.Summarize())
	}
}

// A link line acts on both directions, and a partition is its link lines.
func TestLinkBlackoutAndPartition(t *testing.T) {
	s := sim.New(1)
	ft := newFakeTarget(s)
	in := New(s, s.Rand(), ft)
	in.Schedule(mustParse(t,
		"link 1<->2 down at 1s", "link 1<->2 up at 2s",
		"link 1<->3 down at 3s", "link 2<->3 down at 3s",
		"link 1<->3 up at 4s", "link 2<->3 up at 4s")...)
	s.RunUntil(5 * time.Second)
	want := []Event{
		{At: time.Second, Kind: LinkDown, Node: 1, Peer: 2},
		{At: time.Second, Kind: LinkDown, Node: 2, Peer: 1},
		{At: 2 * time.Second, Kind: LinkUp, Node: 1, Peer: 2},
		{At: 2 * time.Second, Kind: LinkUp, Node: 2, Peer: 1},
		{At: 3 * time.Second, Kind: LinkDown, Node: 1, Peer: 3},
		{At: 3 * time.Second, Kind: LinkDown, Node: 3, Peer: 1},
		{At: 3 * time.Second, Kind: LinkDown, Node: 2, Peer: 3},
		{At: 3 * time.Second, Kind: LinkDown, Node: 3, Peer: 2},
		{At: 4 * time.Second, Kind: LinkUp, Node: 1, Peer: 3},
		{At: 4 * time.Second, Kind: LinkUp, Node: 3, Peer: 1},
		{At: 4 * time.Second, Kind: LinkUp, Node: 2, Peer: 3},
		{At: 4 * time.Second, Kind: LinkUp, Node: 3, Peer: 2},
	}
	if !slices.Equal(ft.log, want) {
		t.Errorf("fired %v\nwant %v", ft.log, want)
	}
	if sum := in.Summarize(); sum != (Summary{LinkDown: 3, LinkUp: 3}) {
		t.Errorf("summary = %v; a link fault counts once", sum)
	}
}

func TestChurnRespectsWindowAndHeals(t *testing.T) {
	s := sim.New(42)
	ft := newFakeTarget(s)
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
	if sum[NodeDown] == 0 {
		t.Fatal("churn injected no crashes in 10 minutes at MTBF 2m")
	}
	if sum[NodeDown] != sum[NodeUp] {
		t.Errorf("unbalanced churn: %v", sum)
	}
	for _, id := range cfg.Nodes {
		if ft.down[id] {
			t.Errorf("node %d still down after churn window", id)
		}
	}
	for _, e := range ft.log {
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
		ft := newFakeTarget(s)
		in := New(s, s.Rand(), ft)
		in.Churn(ChurnConfig{
			Start: 0, Stop: 20 * time.Minute,
			MTBF: 3 * time.Minute, MTTR: time.Minute,
			Nodes: []uint32{1, 2, 3, 4},
		})
		s.RunUntil(20 * time.Minute)
		return ft.log
	}
	if a, b := run(), run(); len(a) == 0 || !slices.Equal(a, b) {
		t.Errorf("same seed, different churn:\n%v\n%v", a, b)
	}
}

func TestChurnValidation(t *testing.T) {
	s := sim.New(1)
	in := New(s, s.Rand(), newFakeTarget(s))
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
