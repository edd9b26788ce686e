// Package topo models node placement. It embeds a reconstruction of the
// paper's Figure 7 testbed — 14 PC/104 nodes on two floors of ISI, with the
// sink typically 4 hops from the sources and the network about 5 hops
// across — and provides grid/line/random generators for scaling studies.
//
// Coordinates are meters in an abstract floor plan. What matters for the
// experiments is the resulting connectivity graph (multi-hop paths, hidden
// terminals, borderline lossy links), not geographic fidelity: the paper
// itself notes "the exact topology varies depending on the level of RF
// activity".
package topo

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Node is a placed sensor node.
type Node struct {
	ID    uint32
	X, Y  float64
	Floor int
}

// Topology is a set of placed nodes.
type Topology struct {
	Name  string
	nodes map[uint32]Node
	order []uint32
	// FloorPenalty is extra effective distance (meters) added to links
	// that cross floors, modelling the attenuation between the testbed's
	// 10th and 11th floors.
	FloorPenalty float64
}

// New returns an empty topology.
func New(name string) *Topology {
	return &Topology{Name: name, nodes: map[uint32]Node{}}
}

// Add places a node. Adding a duplicate ID panics: topologies are built by
// trusted construction code, and a silent overwrite would corrupt an
// experiment.
func (t *Topology) Add(n Node) {
	if _, dup := t.nodes[n.ID]; dup {
		panic(fmt.Sprintf("topo: duplicate node id %d", n.ID))
	}
	t.nodes[n.ID] = n
	t.order = append(t.order, n.ID)
}

// IDs returns all node IDs in insertion order.
func (t *Topology) IDs() []uint32 {
	out := make([]uint32, len(t.order))
	copy(out, t.order)
	return out
}

// Len returns the number of nodes.
func (t *Topology) Len() int { return len(t.order) }

// Node returns the node with the given ID.
func (t *Topology) Node(id uint32) (Node, bool) {
	n, ok := t.nodes[id]
	return n, ok
}

// Distance returns the effective link distance between two nodes: Euclidean
// distance plus the floor penalty for cross-floor pairs. It panics on
// unknown IDs.
func (t *Topology) Distance(a, b uint32) float64 {
	na, ok := t.nodes[a]
	if !ok {
		panic(fmt.Sprintf("topo: unknown node %d", a))
	}
	nb, ok := t.nodes[b]
	if !ok {
		panic(fmt.Sprintf("topo: unknown node %d", b))
	}
	d := math.Hypot(na.X-nb.X, na.Y-nb.Y)
	if na.Floor != nb.Floor {
		d += t.FloorPenalty
	}
	return d
}

// NeighborsWithin returns the IDs of all other nodes within effective
// distance r of id, sorted ascending.
func (t *Topology) NeighborsWithin(id uint32, r float64) []uint32 {
	var out []uint32
	for _, other := range t.order {
		if other == id {
			continue
		}
		if t.Distance(id, other) <= r {
			out = append(out, other)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HopDistance returns the minimum hop count between a and b treating every
// pair within range r as a link, or -1 if unreachable. Used by tests and by
// the analytic traffic model to derive path lengths.
func (t *Topology) HopDistance(a, b uint32, r float64) int {
	if a == b {
		return 0
	}
	dist := map[uint32]int{a: 0}
	queue := []uint32{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.NeighborsWithin(cur, r) {
			if _, seen := dist[nb]; seen {
				continue
			}
			dist[nb] = dist[cur] + 1
			if nb == b {
				return dist[nb]
			}
			queue = append(queue, nb)
		}
	}
	return -1
}

// Well-known testbed roles (paper section 6).
const (
	// TestbedSink is node "D" of the Figure 8 aggregation experiment.
	TestbedSink uint32 = 28
	// TestbedUser is node "U" of the Figure 9 nested-query experiment.
	TestbedUser uint32 = 39
	// TestbedAudio is the triggered audio sensor "A" at node 20.
	TestbedAudio uint32 = 20
)

// TestbedSources are the Figure 8 data sources ("S" at nodes 25, 16, 22,
// 13), which double as the Figure 9 light sensors ("L"). Experiments use
// prefixes of this list when fewer sources are wanted.
func TestbedSources() []uint32 { return []uint32{25, 16, 22, 13} }

// Testbed returns a reconstruction of the paper's Figure 7 topology: 14
// nodes, light nodes 11, 13 and 16 on the 10th floor, the rest on the 11th.
// With the default radio range (~13.5 m solid, fading to nothing by ~19 m)
// the sink at node 28 is 4-5 hops from the sources, the light sensors are
// one hop from the audio node 20, and the user node 39 is two hops from it.
func Testbed() *Topology {
	t := New("isi-testbed")
	t.FloorPenalty = 2.0
	for _, n := range []Node{
		// Source / light-sensor cluster (west side).
		{ID: 13, X: 0, Y: 0, Floor: 10},
		{ID: 16, X: -1, Y: 5, Floor: 10},
		{ID: 22, X: 1, Y: -5, Floor: 11},
		{ID: 25, X: -3, Y: -1, Floor: 11},
		{ID: 17, X: -8, Y: 3, Floor: 11},
		// Audio sensor and first relay column.
		{ID: 20, X: 10, Y: 0, Floor: 11},
		{ID: 11, X: 9, Y: 9, Floor: 10},
		// Mid relays.
		{ID: 21, X: 20, Y: 0, Floor: 11},
		{ID: 14, X: 19, Y: -9, Floor: 11},
		// User node.
		{ID: 39, X: 24, Y: 12, Floor: 11},
		// East relays and sink.
		{ID: 24, X: 30, Y: 0, Floor: 11},
		{ID: 12, X: 29, Y: 9, Floor: 11},
		{ID: 27, X: 31, Y: -9, Floor: 11},
		{ID: 28, X: 40, Y: 0, Floor: 11},
	} {
		t.Add(n)
	}
	return t
}

// WriteDOT renders the connectivity graph induced by radio range r as
// Graphviz DOT, with node positions pinned to their coordinates — the
// topology-visualization tool the paper's section 7 asks for ("tools are
// needed to report the changing radio topology").
func (t *Topology) WriteDOT(w io.Writer, r float64) {
	fmt.Fprintf(w, "graph %q {\n", t.Name)
	fmt.Fprintln(w, "  node [shape=circle];")
	for _, id := range t.order {
		n := t.nodes[id]
		fmt.Fprintf(w, "  n%d [pos=\"%g,%g!\" label=\"%d\"];\n", id, n.X, n.Y, id)
	}
	for i, a := range t.order {
		for _, b := range t.order[i+1:] {
			if t.Distance(a, b) <= r {
				fmt.Fprintf(w, "  n%d -- n%d;\n", a, b)
			}
		}
	}
	fmt.Fprintln(w, "}")
}

// Grid returns a cols×rows grid with the given spacing, nodes numbered from
// 1 in row-major order.
func Grid(cols, rows int, spacing float64) *Topology {
	t := New(fmt.Sprintf("grid-%dx%d", cols, rows))
	id := uint32(1)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t.Add(Node{ID: id, X: float64(c) * spacing, Y: float64(r) * spacing, Floor: 1})
			id++
		}
	}
	return t
}

// Line returns n nodes in a line with the given spacing, numbered from 1.
func Line(n int, spacing float64) *Topology {
	t := New(fmt.Sprintf("line-%d", n))
	for i := 0; i < n; i++ {
		t.Add(Node{ID: uint32(i + 1), X: float64(i) * spacing, Floor: 1})
	}
	return t
}

// Random places n nodes uniformly at random in a w×h field using rng,
// numbered from 1.
func Random(n int, w, h float64, rng *rand.Rand) *Topology {
	t := New(fmt.Sprintf("random-%d", n))
	for i := 0; i < n; i++ {
		t.Add(Node{ID: uint32(i + 1), X: rng.Float64() * w, Y: rng.Float64() * h, Floor: 1})
	}
	return t
}

// Mobility. A Trajectory models a mobile node — a message ferry, a data
// mule, a commuter — as a piecewise-linear path over timed waypoints,
// and Contacts derives the deterministic contact schedule between that
// path and static nodes. Disruption-tolerance experiments turn the
// schedule into link up/down and NeighborDead/NeighborRecovered events;
// motion deliberately stays out of the radio model, so the schedule,
// not radio luck, decides connectivity, and mobile scenarios remain
// deterministic and comparable across protocol arms.

// Waypoint is a point on a mobile node's path, reached at time T.
type Waypoint struct {
	T    time.Duration
	X, Y float64
}

// Trajectory is a piecewise-linear mobility path: constant-speed motion
// between consecutive waypoints (equal consecutive positions model a
// dwell). Waypoints must be in nondecreasing time order. With Cyclic
// set, the path repeats with period last.T−first.T; the last waypoint's
// position should match the first for continuous motion.
type Trajectory struct {
	Waypoints []Waypoint
	Cyclic    bool
}

// At returns the mobile node's position at time t: the first waypoint's
// position before the path starts, the last's after it ends (unless
// Cyclic), linear interpolation in between.
func (tr *Trajectory) At(t time.Duration) (x, y float64) {
	wps := tr.Waypoints
	if len(wps) == 0 {
		return 0, 0
	}
	first, last := wps[0], wps[len(wps)-1]
	if tr.Cyclic && last.T > first.T && t > last.T {
		t = first.T + (t-first.T)%(last.T-first.T)
	}
	if t <= first.T {
		return first.X, first.Y
	}
	for i := 1; i < len(wps); i++ {
		a, b := wps[i-1], wps[i]
		if t > b.T {
			continue
		}
		if b.T == a.T {
			return b.X, b.Y
		}
		f := float64(t-a.T) / float64(b.T-a.T)
		return a.X + f*(b.X-a.X), a.Y + f*(b.Y-a.Y)
	}
	return last.X, last.Y
}

// Contact is one maximal window during which a mobile node is within
// contact radius of the static node Peer: [From, To).
type Contact struct {
	Peer     uint32
	From, To time.Duration
}

// Contacts returns the maximal windows during which the trajectory is
// within radius of each listed static node, sampled every step over
// [0, until); window edges are step-granular, and windows still open at
// until are closed there. The result is ordered by start time then
// peer, and is a pure function of its arguments. Radius is plain
// Euclidean distance — a mobile node dwells wherever it likes,
// regardless of floors. It panics on unknown peers.
func (t *Topology) Contacts(tr *Trajectory, peers []uint32, radius float64, until, step time.Duration) []Contact {
	if until <= 0 || step <= 0 {
		return nil
	}
	var out []Contact
	for _, p := range peers {
		pn, ok := t.nodes[p]
		if !ok {
			panic(fmt.Sprintf("topo: unknown node %d", p))
		}
		in := false
		var from time.Duration
		for at := time.Duration(0); at < until; at += step {
			x, y := tr.At(at)
			near := math.Hypot(x-pn.X, y-pn.Y) <= radius
			switch {
			case near && !in:
				in, from = true, at
			case !near && in:
				in = false
				out = append(out, Contact{Peer: p, From: from, To: at})
			}
		}
		if in {
			out = append(out, Contact{Peer: p, From: from, To: until})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}
