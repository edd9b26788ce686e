package diffusion_test

import (
	"strings"
	"testing"
	"time"

	"diffusion"
)

func TestFacadeSuppression(t *testing.T) {
	// A loss-free channel keeps the duplicate pair's fate deterministic;
	// the test is about the relay's suppression logic, not channel luck.
	rp := diffusion.PerfectRadio()
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     1,
		Topology: diffusion.LineTopology(3, 10),
		Radio:    &rp,
	})
	relay := net.Node(2)
	sup := net.NewSuppression(relay, diffusion.SuppressionOptions{
		IdentityKeys: []diffusion.Key{diffusion.KeySequence},
	})
	interest, publication := surveillance()
	var got int
	net.Node(1).Subscribe(interest, func(*diffusion.Message) { got++ })
	src := net.Node(3)
	pub := src.Publish(publication)
	// The same sequence number twice: the relay must pass one.
	net.After(2*time.Second, func() {
		src.Send(pub, diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, 1)})
	})
	net.After(4*time.Second, func() {
		src.Send(pub, diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, 1)})
	})
	net.Run(time.Minute)
	if sup.Suppressed == 0 {
		t.Errorf("suppression never triggered (passed=%d, delivered=%d)", sup.Passed, got)
	}
	if got != 1 {
		t.Errorf("delivered %d, want exactly 1", got)
	}
}

func TestFacadeTapAndCounting(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     2,
		Topology: diffusion.LineTopology(2, 10),
	})
	tap := net.NewTap(net.Node(1), nil, nil)
	agg := net.NewCountingAggregator(net.Node(1), nil, 200*time.Millisecond)
	interest, publication := surveillance()
	var counts []int32
	net.Node(1).Subscribe(interest, func(m *diffusion.Message) {
		if c, ok := m.Attrs.FindActual(diffusion.KeyCount); ok {
			counts = append(counts, c.Val.Int32())
		}
	})
	src := net.Node(2)
	pub := src.Publish(publication)
	net.After(2*time.Second, func() {
		src.Send(pub, diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, 5)})
	})
	net.Run(30 * time.Second)
	if tap.Last == nil {
		t.Error("tap observed nothing")
	}
	if agg.Flushed == 0 {
		t.Error("counting aggregator never flushed")
	}
	if len(counts) != 1 || counts[0] != 1 {
		t.Errorf("count attribute: %v", counts)
	}
}

func TestFacadeGeoScope(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     3,
		Topology: diffusion.LineTopology(5, 10),
	})
	var scopes []*diffusion.GeoScope
	for _, id := range net.IDs() {
		scopes = append(scopes, net.NewGeoScope(net.Node(id), 13.5))
	}
	var got int
	net.Node(1).Subscribe(diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.EQ, "geo"),
		diffusion.Float64(diffusion.KeyX, diffusion.GE, 35),
		diffusion.Float64(diffusion.KeyX, diffusion.LE, 45),
		diffusion.Float64(diffusion.KeyY, diffusion.GE, -5),
		diffusion.Float64(diffusion.KeyY, diffusion.LE, 5),
	}, func(*diffusion.Message) { got++ })
	src := net.Node(5) // at x=40, inside the region
	pub := src.Publish(diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.IS, "geo"),
		diffusion.Float64(diffusion.KeyX, diffusion.IS, 40),
		diffusion.Float64(diffusion.KeyY, diffusion.IS, 0),
	})
	seq := int32(0)
	net.Every(5*time.Second, func() {
		seq++
		src.Send(pub, diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq)})
	})
	net.Run(2 * time.Minute)
	if got == 0 {
		t.Fatal("scoped interest delivered nothing")
	}
	unicasts := 0
	for _, g := range scopes {
		unicasts += g.Unicasts
	}
	if unicasts == 0 {
		t.Error("relays should have greedy-unicast the scoped interest")
	}
}

func TestFacadeElection(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     4,
		Topology: diffusion.LineTopology(2, 5),
	})
	results := map[uint32]bool{}
	net.NewElection(net.Node(1), "cam", 10, 50, 30*time.Second, func(w bool) { results[1] = w })
	net.NewElection(net.Node(2), "cam", 5, 50, 30*time.Second, func(w bool) { results[2] = w })
	net.Run(2 * time.Minute)
	if len(results) != 2 {
		t.Fatalf("decided: %v", results)
	}
	if results[1] || !results[2] {
		t.Errorf("node 2 (score 5) should win: %v", results)
	}
}

func TestFacadeMoteTier(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:      5,
		Topology:  diffusion.LineTopology(4, 10),
		MoteNodes: []uint32{3, 4},
	})
	if len(net.Nodes()) != 2 {
		t.Fatalf("Nodes() should list only full nodes, got %d", len(net.Nodes()))
	}
	gw := diffusion.NewGateway(net.Node(2), net.Mote(3), []diffusion.GatewayMapping{{
		Tag: 9,
		Watch: diffusion.Attributes{
			diffusion.Int32(diffusion.KeyClass, diffusion.EQ, diffusion.ClassInterestValue),
			diffusion.String(diffusion.KeyType, diffusion.IS, "photo"),
		},
		Publication: diffusion.Attributes{diffusion.String(diffusion.KeyType, diffusion.IS, "photo")},
	}})
	var got []int32
	net.Node(1).Subscribe(diffusion.Attributes{
		diffusion.String(diffusion.KeyType, diffusion.EQ, "photo"),
	}, func(m *diffusion.Message) {
		v, _ := m.Attrs.FindActual(diffusion.KeyIntensity)
		got = append(got, v.Val.Int32())
	})
	leaf := net.Mote(4)
	net.Every(10*time.Second, func() { leaf.Send(9, 77) })
	net.Run(2 * time.Minute)
	if gw.InterestsDown == 0 || gw.DataUp == 0 {
		t.Fatalf("gateway bridging: %+v", gw)
	}
	if len(got) == 0 || got[0] != 77 {
		t.Errorf("mote readings at user: %v", got)
	}
	if diffusion.MoteMemoryFootprint() > 256 {
		t.Error("mote budget")
	}
	defer func() {
		if recover() == nil {
			t.Error("Mote on a full node must panic")
		}
	}()
	net.Mote(1)
}

func TestFacadeNestedResponder(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     6,
		Topology: diffusion.LineTopology(3, 10),
	})
	user, audio, light := net.Node(1), net.Node(2), net.Node(3)
	resp := diffusion.NewNestedQueryResponder(diffusion.NestedQueryConfig{
		Node: audio.Node,
		TriggerWatch: diffusion.Attributes{
			diffusion.Int32(diffusion.KeyClass, diffusion.EQ, diffusion.ClassInterestValue),
			diffusion.String(diffusion.KeyType, diffusion.IS, "audio"),
		},
		InitialInterest: diffusion.Attributes{diffusion.String(diffusion.KeyType, diffusion.EQ, "light")},
		Publication:     diffusion.Attributes{diffusion.String(diffusion.KeyType, diffusion.IS, "audio")},
		OnInitial: func(m *diffusion.Message) diffusion.Attributes {
			s, _ := m.Attrs.FindActual(diffusion.KeySequence)
			return diffusion.Attributes{s}
		},
	})
	var heard int
	user.Subscribe(diffusion.Attributes{
		diffusion.String(diffusion.KeyType, diffusion.EQ, "audio"),
	}, func(*diffusion.Message) { heard++ })
	pub := light.Publish(diffusion.Attributes{diffusion.String(diffusion.KeyType, diffusion.IS, "light")})
	seq := int32(0)
	net.Every(5*time.Second, func() {
		seq++
		light.Send(pub, diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq)})
	})
	net.Run(3 * time.Minute)
	if !resp.Active() || resp.Reports == 0 || heard == 0 {
		t.Errorf("nested responder: active=%v reports=%d heard=%d",
			resp.Active(), resp.Reports, heard)
	}
}

func TestKeyHelpers(t *testing.T) {
	k := diffusion.RegisterKey("facade-custom")
	if diffusion.KeyName(k) != "facade-custom" {
		t.Error("key registry round trip")
	}
	a := diffusion.Attributes{diffusion.Float64(diffusion.KeyConfidence, diffusion.GT, 0.5)}
	b := diffusion.Attributes{diffusion.Float64(diffusion.KeyConfidence, diffusion.IS, 0.7)}
	if !diffusion.OneWayMatch(a, b) || !diffusion.Match(a, b) {
		t.Error("matching re-exports")
	}
	if !strings.Contains(a.String(), "confidence GT") {
		t.Error("attribute rendering")
	}
}

func TestFacadeCache(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     7,
		Topology: diffusion.LineTopology(3, 10),
	})
	cache := net.NewCache(net.Node(2), diffusion.CacheOptions{TTL: time.Hour})
	interest, publication := surveillance()

	// Prime: an early sink pulls one reading through the caching relay.
	h := net.Node(1).Subscribe(interest, nil)
	pub := net.Node(3).Publish(publication)
	net.After(2*time.Second, func() {
		net.Node(3).Send(pub, diffusion.Attributes{
			diffusion.Int32(diffusion.KeySequence, diffusion.IS, 5),
		})
	})
	net.Run(10 * time.Second)
	if cache.Cached == 0 {
		t.Fatal("cache never stored the reading")
	}
	_ = net.Node(1).Unsubscribe(h)

	// A late subscriber gets the cached reading without a new send.
	var seq int32 = -1
	net.Node(1).Subscribe(interest, func(m *diffusion.Message) {
		if a, ok := m.Attrs.FindActual(diffusion.KeySequence); ok {
			seq = a.Val.Int32()
		}
	})
	net.Run(time.Minute)
	if cache.Replays == 0 || seq != 5 {
		t.Errorf("cache replay: replays=%d seq=%d", cache.Replays, seq)
	}
}

func TestFacadeFusion(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     25,
		Topology: diffusion.LineTopology(3, 10),
		Radio:    ptr(diffusion.PerfectRadio()),
	})
	fu := net.NewFusion(net.Node(2), nil, 500*time.Millisecond)
	got := 0
	net.Node(1).Subscribe(diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.EQ, "detect"),
	}, func(*diffusion.Message) { got++ })
	src := net.Node(3)
	pub := src.Publish(diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.IS, "detect")})
	net.After(2*time.Second, func() {
		src.Send(pub, diffusion.Attributes{
			diffusion.String(diffusion.KeyType, diffusion.IS, "seismic"),
			diffusion.Float64(diffusion.KeyConfidence, diffusion.IS, 0.5),
			diffusion.Int32(diffusion.KeySequence, diffusion.IS, 1),
		})
	})
	net.Run(30 * time.Second)
	if fu.Reports != 1 || got != 1 {
		t.Errorf("fusion facade: reports=%d delivered=%d", fu.Reports, got)
	}
}
