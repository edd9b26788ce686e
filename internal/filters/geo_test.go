package filters

import (
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/nettest"
)

func TestRegionOf(t *testing.T) {
	full := attr.Vec{
		attr.Float64Attr(attr.KeyX, attr.GE, -100),
		attr.Float64Attr(attr.KeyX, attr.LE, 200),
		attr.Float64Attr(attr.KeyY, attr.GE, 100),
		attr.Float64Attr(attr.KeyY, attr.LE, 400),
	}
	r, ok := RegionOf(full)
	if !ok {
		t.Fatal("fully bounded region should parse")
	}
	if r.MinX != -100 || r.MaxX != 200 || r.MinY != 100 || r.MaxY != 400 {
		t.Errorf("region %+v", r)
	}
	if !r.Contains(125, 220) || r.Contains(125, 500) {
		t.Error("containment")
	}
	if _, ok := RegionOf(full[:3]); ok {
		t.Error("partially bounded region must not parse")
	}
	if _, ok := RegionOf(nil); ok {
		t.Error("empty attrs have no region")
	}
	// Integer attributes work too, and tighter bounds win.
	r, ok = RegionOf(attr.Vec{
		attr.Int32Attr(attr.KeyX, attr.GE, 0),
		attr.Int32Attr(attr.KeyX, attr.GE, 10),
		attr.Int32Attr(attr.KeyX, attr.LE, 20),
		attr.Int32Attr(attr.KeyY, attr.GE, 0),
		attr.Int32Attr(attr.KeyY, attr.LE, 5),
	})
	if !ok || r.MinX != 10 {
		t.Errorf("tightest bound must win: %+v %v", r, ok)
	}
}

// geoChain builds a line 1-2-3-4-5 at x = 0,10,20,30,40, y=0, with each
// node given its neighbors' positions, and a GeoScope filter installed.
func geoChain(seed int64) (*nettest.Net, []*core.Node, []*GeoScope) {
	tn := nettest.New(seed)
	nodes := tn.Line(5)
	pos := map[uint32][2]float64{}
	for i := uint32(1); i <= 5; i++ {
		pos[i] = [2]float64{float64(i-1) * 10, 0}
	}
	var scopes []*GeoScope
	for i := uint32(1); i <= 5; i++ {
		nbrs := map[uint32][2]float64{}
		if i > 1 {
			nbrs[i-1] = pos[i-1]
		}
		if i < 5 {
			nbrs[i+1] = pos[i+1]
		}
		scopes = append(scopes, NewGeoScope(tn.Nodes[i], pos[i][0], pos[i][1], nbrs))
	}
	return tn, nodes, scopes
}

func regionInterest() attr.Vec {
	// Region around node 5 (x in [35,45]).
	return attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "geo-task"),
		attr.Float64Attr(attr.KeyX, attr.GE, 35),
		attr.Float64Attr(attr.KeyX, attr.LE, 45),
		attr.Float64Attr(attr.KeyY, attr.GE, -5),
		attr.Float64Attr(attr.KeyY, attr.LE, 5),
	}
}

func TestGeoScopeDeliversIntoRegion(t *testing.T) {
	tn, nodes, scopes := geoChain(1)
	var got int
	nodes[0].Subscribe(regionInterest(), func(*message.Message) { got++ })

	// Node 5 is in the region and publishes matching data with its
	// position as actuals.
	pub := nodes[4].Publish(attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.IS, "geo-task"),
		attr.Float64Attr(attr.KeyX, attr.IS, 40),
		attr.Float64Attr(attr.KeyY, attr.IS, 0),
	})
	tn.Sched.Every(2*time.Second, time.Second, func() { nodes[4].Send(pub, nil) })
	tn.Sched.RunUntil(15 * time.Second)

	if got < 5 {
		t.Fatalf("scoped interest should still deliver data: got %d", got)
	}
	// The relays outside the region must have unicast, not flooded.
	unicasts := 0
	for _, g := range scopes[1:4] {
		unicasts += g.Unicasts
	}
	if unicasts == 0 {
		t.Error("relays outside the region should greedy-unicast the interest")
	}
}

func TestGeoScopeCutsInterestTraffic(t *testing.T) {
	// Comb topology: a main line 1..5 toward the region, with off-path
	// branch nodes 6,7,8 hanging off the middle relays. Flooding covers
	// the branches; greedy geographic unicast skips them entirely.
	run := func(withGeo bool) int {
		tn := nettest.New(2)
		nodes := tn.Line(5)
		for i, branch := range []uint32{6, 7, 8} {
			tn.AddNode(branch, nil)
			tn.Connect(uint32(i+2), branch) // off nodes 2, 3, 4
		}
		if withGeo {
			pos := map[uint32][2]float64{}
			for i := uint32(1); i <= 5; i++ {
				pos[i] = [2]float64{float64(i-1) * 10, 0}
			}
			for i := uint32(1); i <= 5; i++ {
				nbrs := map[uint32][2]float64{}
				if i > 1 {
					nbrs[i-1] = pos[i-1]
				}
				if i < 5 {
					nbrs[i+1] = pos[i+1]
				}
				NewGeoScope(tn.Nodes[i], pos[i][0], pos[i][1], nbrs)
			}
		}
		nodes[0].Subscribe(regionInterest(), nil)
		tn.Sched.RunUntil(time.Minute)
		total := 0
		for _, n := range tn.Nodes {
			total += n.Stats.SentByClass[message.Interest]
		}
		return total
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("geo scoping should reduce interest transmissions: with=%d without=%d",
			with, without)
	}
}

// TestGeoScopeSeenIsBounded drives ten times geoSeenCap distinct scoped
// interest originations through one filter: every one is scoped, and the
// filter remembers at most geoSeenCap of them, the newest.
func TestGeoScopeSeenIsBounded(t *testing.T) {
	tn, nodes, scopes := geoChain(5)
	g := scopes[1]
	const n = 10 * geoSeenCap
	for i := uint32(1); i <= n; i++ {
		wire := (&message.Message{
			Class:   message.Interest,
			ID:      message.ID{RandID: 1, PktNum: i},
			PrevHop: 1,
			NextHop: message.Broadcast,
			Attrs:   append(attr.Vec{attr.ClassIsInterest()}, regionInterest()...),
		}).Marshal()
		nodes[1].Receive(1, wire)
		tn.Sched.RunUntil(tn.Sched.Now() + time.Millisecond)
	}
	if g.Unicasts != n {
		t.Fatalf("node 2 scoped %d of %d interests", g.Unicasts, n)
	}
	if len(g.seen) != geoSeenCap {
		t.Fatalf("seen holds %d IDs, cap %d", len(g.seen), geoSeenCap)
	}
	if g.seen[0] != (message.ID{RandID: 1, PktNum: n - geoSeenCap + 1}) || g.seen[geoSeenCap-1] != (message.ID{RandID: 1, PktNum: n}) {
		t.Errorf("seen runs %v to %v, want the newest %d originations", g.seen[0], g.seen[len(g.seen)-1], geoSeenCap)
	}
}

func TestGeoScopePassesUnscopedInterests(t *testing.T) {
	tn, nodes, scopes := geoChain(3)
	nodes[0].Subscribe(attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "anywhere"),
	}, nil)
	tn.Sched.RunUntil(5 * time.Second)
	if nodes[4].Entries() == 0 {
		t.Error("unscoped interest must still flood end to end")
	}
	for _, g := range scopes {
		if g.Unicasts != 0 {
			t.Error("unscoped interests must not be unicast")
		}
	}
}

func TestElectionPicksBestCandidate(t *testing.T) {
	// Three candidates in a clique; node 2 has the best (lowest) score.
	tn := nettest.New(4)
	for i := uint32(1); i <= 3; i++ {
		tn.AddNode(i, nil)
	}
	tn.Connect(1, 2)
	tn.Connect(2, 3)
	tn.Connect(1, 3)

	results := map[uint32]bool{}
	scores := map[uint32]float64{1: 30, 2: 5, 3: 20}
	for id, sc := range scores {
		id := id
		NewElection(ElectionConfig{
			Node:       tn.Nodes[id],
			Clock:      tn.Sched,
			Rand:       tn.Sched.Rand(),
			Name:       "camera",
			Score:      sc,
			ScoreScale: 50,
			Window:     20 * time.Second,
			OnDecided:  func(won bool) { results[id] = won },
		})
	}
	tn.Sched.RunUntil(time.Minute)

	if len(results) != 3 {
		t.Fatalf("only %d candidates decided", len(results))
	}
	winners := 0
	for id, won := range results {
		if won {
			winners++
			if id != 2 {
				t.Errorf("node %d won; best score was node 2", id)
			}
		}
	}
	if winners != 1 {
		t.Errorf("%d winners, want exactly 1", winners)
	}
}

func TestElectionTieBreaksByID(t *testing.T) {
	tn := nettest.New(5)
	tn.AddNode(1, nil)
	tn.AddNode(2, nil)
	tn.Connect(1, 2)
	results := map[uint32]bool{}
	for _, id := range []uint32{1, 2} {
		id := id
		NewElection(ElectionConfig{
			Node:       tn.Nodes[id],
			Clock:      tn.Sched,
			Rand:       tn.Sched.Rand(),
			Name:       "tie",
			Score:      10,
			ScoreScale: 50,
			Window:     20 * time.Second,
			OnDecided:  func(won bool) { results[id] = won },
		})
	}
	tn.Sched.RunUntil(time.Minute)
	if !results[1] || results[2] {
		t.Errorf("tie must break toward the lower ID: %v", results)
	}
}

func TestElectionSoleCandidateWins(t *testing.T) {
	tn := nettest.New(6)
	tn.AddNode(1, nil)
	won := false
	decided := false
	NewElection(ElectionConfig{
		Node:       tn.Nodes[1],
		Clock:      tn.Sched,
		Rand:       tn.Sched.Rand(),
		Name:       "solo",
		Score:      99,
		ScoreScale: 100,
		Window:     10 * time.Second,
		OnDecided:  func(w bool) { won, decided = w, true },
	})
	tn.Sched.RunUntil(time.Minute)
	if !decided || !won {
		t.Errorf("sole candidate must win: decided=%v won=%v", decided, won)
	}
}

func TestNestedQueryResponder(t *testing.T) {
	// Chain: user(1) - audio(2) - light(3). The responder on the audio
	// node activates on the user's nested query, sub-tasks the light
	// sensor, and reports audio data per light event.
	tn := nettest.New(7)
	nodes := tn.Line(3)
	user, audio, light := nodes[0], nodes[1], nodes[2]

	resp := NewNestedQueryResponder(NestedQueryConfig{
		Node: audio,
		TriggerWatch: attr.Vec{
			attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest),
			attr.StringAttr(attr.KeyType, attr.IS, "audio"),
		},
		InitialInterest: attr.Vec{
			attr.StringAttr(attr.KeyType, attr.EQ, "light"),
		},
		Publication: attr.Vec{
			attr.StringAttr(attr.KeyType, attr.IS, "audio"),
		},
		OnInitial: func(m *message.Message) attr.Vec {
			seq, _ := m.Attrs.FindActual(attr.KeySequence)
			return attr.Vec{seq}
		},
	})

	var audioEvents []int32
	user.Subscribe(attr.Vec{
		attr.StringAttr(attr.KeyType, attr.EQ, "audio"),
	}, func(m *message.Message) {
		if a, ok := m.Attrs.FindActual(attr.KeySequence); ok {
			audioEvents = append(audioEvents, a.Val.Int32())
		}
	})

	lightPub := light.Publish(attr.Vec{attr.StringAttr(attr.KeyType, attr.IS, "light")})
	seq := int32(0)
	tn.Sched.Every(5*time.Second, 2*time.Second, func() {
		seq++
		light.Send(lightPub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
	})
	tn.Sched.RunUntil(time.Minute)

	if !resp.Active() {
		t.Fatal("responder never activated")
	}
	if resp.Reports == 0 {
		t.Fatal("responder sent no audio reports")
	}
	if len(audioEvents) < 10 {
		t.Errorf("user received %d audio events", len(audioEvents))
	}
	// Light data must have been localized: the user never subscribed to
	// light, so no light data should reach it.
	resp.Close()
	if resp.Active() {
		t.Error("Close must deactivate")
	}
}
