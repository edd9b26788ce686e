package topo

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// solidRange mirrors the radio default used by the experiments: links up to
// this effective distance are reliable.
const solidRange = 13.5

func TestTestbedTopology(t *testing.T) {
	tb := Testbed()
	if tb.Len() != 14 {
		t.Fatalf("testbed has %d nodes, want 14 (Figure 7)", tb.Len())
	}
	// Paper: light nodes 11, 13, 16 on the 10th floor.
	for _, id := range []uint32{11, 13, 16} {
		n, ok := tb.Node(id)
		if !ok || n.Floor != 10 {
			t.Errorf("node %d should be on floor 10", id)
		}
	}
	if !connected(tb, solidRange) {
		t.Fatal("testbed must be connected at solid radio range")
	}
	// Paper: "the network is typically 5 hops across".
	if d := diameter(tb, solidRange); d < 4 || d > 7 {
		t.Errorf("diameter %d, want about 5", d)
	}
	// Paper: sink D at 28, sources typically 4 hops away.
	for _, src := range TestbedSources() {
		h := tb.HopDistance(src, TestbedSink, solidRange)
		if h < 3 || h > 6 {
			t.Errorf("source %d is %d hops from sink, want about 4", src, h)
		}
	}
	// Paper (section 6.2): one hop from the light sensors to the audio
	// sensor, two hops from there to the user node.
	for _, l := range TestbedSources() {
		h := tb.HopDistance(l, TestbedAudio, solidRange)
		if h < 1 || h > 2 {
			t.Errorf("light %d is %d hops from audio node, want 1", l, h)
		}
	}
	if h := tb.HopDistance(TestbedAudio, TestbedUser, solidRange); h != 2 {
		t.Errorf("audio to user is %d hops, want 2", h)
	}
	// Flat queries should travel farther than nested ones: lights are 3
	// hops from the user.
	for _, l := range TestbedSources() {
		h := tb.HopDistance(l, TestbedUser, solidRange)
		if h < 2 || h > 4 {
			t.Errorf("light %d is %d hops from user, want about 3", l, h)
		}
	}
}

func TestFloorPenalty(t *testing.T) {
	tb := Testbed()
	d := tb.Distance(13, 20) // cross-floor: 10m + penalty
	if math.Abs(d-12.0) > 1e-9 {
		t.Errorf("distance 13-20 = %v, want 12 (10m + 2m floor penalty)", d)
	}
	d = tb.Distance(20, 21) // same floor
	if math.Abs(d-10.0) > 1e-9 {
		t.Errorf("distance 20-21 = %v, want 10", d)
	}
	if tb.Distance(13, 20) != tb.Distance(20, 13) {
		t.Error("distance must be symmetric")
	}
}

func TestNeighborsWithin(t *testing.T) {
	tb := Testbed()
	nbrs := tb.NeighborsWithin(28, solidRange)
	if len(nbrs) == 0 {
		t.Fatal("sink must have neighbors")
	}
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Error("neighbors must be sorted")
		}
	}
	for _, nb := range nbrs {
		if nb == 28 {
			t.Error("a node is not its own neighbor")
		}
		if tb.Distance(28, nb) > solidRange {
			t.Error("neighbor beyond range")
		}
	}
	// The far light cluster must not be direct neighbors of the sink.
	for _, src := range TestbedSources() {
		for _, nb := range nbrs {
			if nb == src {
				t.Errorf("source %d must not be adjacent to the sink", src)
			}
		}
	}
}

func TestHopDistance(t *testing.T) {
	l := Line(5, 10)
	if h := l.HopDistance(1, 5, 12); h != 4 {
		t.Errorf("line hop distance = %d, want 4", h)
	}
	if h := l.HopDistance(1, 5, 25); h != 2 {
		t.Errorf("line hop distance at double range = %d, want 2", h)
	}
	if h := l.HopDistance(1, 1, 12); h != 0 {
		t.Errorf("self distance = %d", h)
	}
	if h := l.HopDistance(1, 5, 5); h != -1 {
		t.Errorf("disconnected should be -1, got %d", h)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 3, 10)
	if g.Len() != 12 {
		t.Fatalf("grid size %d", g.Len())
	}
	n, ok := g.Node(1)
	if !ok || n.X != 0 || n.Y != 0 {
		t.Error("node 1 at origin")
	}
	n, _ = g.Node(12)
	if n.X != 30 || n.Y != 20 {
		t.Errorf("node 12 at (%v,%v)", n.X, n.Y)
	}
	if !connected(g, 10.1) {
		t.Error("grid should be connected at spacing range")
	}
	if connected(g, 9.9) {
		t.Error("grid should be disconnected below spacing")
	}
	if d := diameter(g, 10.1); d != 5 {
		t.Errorf("4x3 grid manhattan diameter = %d, want 5", d)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(20, 100, 100, rand.New(rand.NewSource(5)))
	b := Random(20, 100, 100, rand.New(rand.NewSource(5)))
	for _, id := range a.IDs() {
		na, _ := a.Node(id)
		nb, _ := b.Node(id)
		if na != nb {
			t.Fatal("same seed must give same placement")
		}
		if na.X < 0 || na.X > 100 || na.Y < 0 || na.Y > 100 {
			t.Fatal("node outside field")
		}
	}
}

func TestDuplicateIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add must panic")
		}
	}()
	tp := New("dup")
	tp.Add(Node{ID: 1})
	tp.Add(Node{ID: 1})
}

func TestUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Distance on unknown node must panic")
		}
	}()
	Testbed().Distance(1, 2)
}

func TestEmptyTopology(t *testing.T) {
	e := New("empty")
	if !connected(e, 10) {
		t.Error("empty topology is vacuously connected")
	}
	if e.Len() != 0 || len(e.IDs()) != 0 {
		t.Error("empty topology invariants")
	}
}

func TestWriteDOT(t *testing.T) {
	var buf bytes.Buffer
	Testbed().WriteDOT(&buf, solidRange)
	s := buf.String()
	if !strings.Contains(s, `graph "isi-testbed"`) {
		t.Errorf("header missing:\n%s", s)
	}
	if !strings.Contains(s, "n28 [pos=") {
		t.Error("sink node missing")
	}
	if strings.Count(s, " -- ") < 10 {
		t.Errorf("too few edges:\n%s", s)
	}
	// Distant pairs must not be edges.
	if strings.Contains(s, "n13 -- n28") || strings.Contains(s, "n28 -- n13") {
		t.Error("source and sink are not adjacent")
	}
}

func TestTrajectoryAt(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * 1e9 }
	tr := &Trajectory{Waypoints: []Waypoint{
		{T: sec(0), X: 0},
		{T: sec(10), X: 0},  // dwell
		{T: sec(20), X: 40}, // travel at 4 m/s
		{T: sec(30), X: 40}, // dwell
		{T: sec(40), X: 0},  // return
	}, Cyclic: true}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{sec(0), 0}, {sec(5), 0}, {sec(10), 0},
		{sec(15), 20}, {sec(20), 40}, {sec(25), 40},
		{sec(35), 20}, {sec(40), 0},
		// Cyclic wrap: t=45 ≡ t=5, t=55 ≡ t=15.
		{sec(45), 0}, {sec(55), 20}, {sec(95), 20},
	}
	for _, c := range cases {
		x, y := tr.At(c.at)
		if math.Abs(x-c.want) > 1e-9 || y != 0 {
			t.Errorf("At(%v) = (%g, %g), want (%g, 0)", c.at, x, y, c.want)
		}
	}
	// Non-cyclic trajectories park at the endpoints.
	tr.Cyclic = false
	if x, _ := tr.At(sec(99)); x != 0 {
		t.Errorf("non-cyclic At(99s) = %g, want terminal 0", x)
	}
	if x, _ := (&Trajectory{}).At(sec(1)); x != 0 {
		t.Error("empty trajectory should sit at the origin")
	}
}

func TestContacts(t *testing.T) {
	sec := func(s int) time.Duration { return time.Duration(s) * 1e9 }
	line := Line(5, 10) // nodes 1..5 at x = 0, 10, 20, 30, 40
	// Shuttle between the two inner relays (x=10 and x=30), dwelling 10 s
	// at each end, 10 s travel, 40 s cycle.
	tr := &Trajectory{Waypoints: []Waypoint{
		{T: sec(0), X: 10},
		{T: sec(10), X: 10},
		{T: sec(20), X: 30},
		{T: sec(30), X: 30},
		{T: sec(40), X: 10},
	}, Cyclic: true}
	contacts := line.Contacts(tr, []uint32{2, 4}, 5, sec(40), sec(1)/4)
	if len(contacts) != 3 {
		t.Fatalf("got %d contacts, want 3: %+v", len(contacts), contacts)
	}
	// Within radius 5 of node 2 (x=10) while x ≤ 15: [0, 12.5s) and from
	// 37.5s to the horizon; within radius of node 4 (x=30) while x ≥ 25:
	// [17.5s, 32.5s).
	check := func(c Contact, peer uint32, from, to time.Duration) {
		t.Helper()
		if c.Peer != peer || c.From != from || c.To != to {
			t.Errorf("contact %+v, want peer %d [%v, %v)", c, peer, from, to)
		}
	}
	check(contacts[0], 2, sec(0), sec(12)+sec(1)/2+sec(1)/4)
	check(contacts[1], 4, sec(17)+sec(1)/2, sec(32)+sec(1)/2+sec(1)/4)
	check(contacts[2], 2, sec(37)+sec(1)/2, sec(40))
	// No overlap between the two peers' windows: the islands stay isolated.
	if contacts[0].To > contacts[1].From || contacts[1].To > contacts[2].From {
		t.Error("contact windows overlap; islands are bridged")
	}
	// Determinism: the schedule is a pure function of its inputs.
	again := line.Contacts(tr, []uint32{2, 4}, 5, sec(40), sec(1)/4)
	for i := range contacts {
		if contacts[i] != again[i] {
			t.Fatal("contact schedule is not deterministic")
		}
	}
}

// connected reports whether the graph induced by range r is connected.
func connected(t *Topology, r float64) bool {
	if len(t.order) == 0 {
		return true
	}
	first := t.order[0]
	for _, id := range t.order[1:] {
		if t.HopDistance(first, id, r) < 0 {
			return false
		}
	}
	return true
}

// diameter returns the maximum pairwise hop distance at range r, or -1 if
// the graph is disconnected.
func diameter(t *Topology, r float64) int {
	max := 0
	for i, a := range t.order {
		for _, b := range t.order[i+1:] {
			h := t.HopDistance(a, b, r)
			if h < 0 {
				return -1
			}
			if h > max {
				max = h
			}
		}
	}
	return max
}
