package diffusion_test

import (
	"testing"
	"time"

	"diffusion"
)

func surveillance() (interest, publication diffusion.Attributes) {
	interest = diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.EQ, "surveillance"),
		diffusion.Int32(diffusion.KeyInterval, diffusion.IS, 6000),
	}
	publication = diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.IS, "surveillance"),
	}
	return
}

// TestEndToEndOverTestbed runs the full stack — diffusion core, CSMA MAC
// with 27-byte fragments, lossy asymmetric radio — on the paper's 14-node
// testbed topology: a sink at node 28 and a source at node 13, four to
// five hops apart.
func TestEndToEndOverTestbed(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     42,
		Topology: diffusion.TestbedTopology(),
	})
	interest, publication := surveillance()

	var got []int32
	sink := net.Node(diffusion.TestbedSink)
	sink.Subscribe(interest, func(m *diffusion.Message) {
		if a, ok := m.Attrs.FindActual(diffusion.KeySequence); ok {
			got = append(got, a.Val.Int32())
		}
	})

	src := net.Node(13)
	pub := src.Publish(publication)
	seq := int32(0)
	net.Every(6*time.Second, func() {
		seq++
		src.Send(pub, diffusion.Attributes{
			diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
			diffusion.Blob(diffusion.KeyPayload, diffusion.IS, make([]byte, 50)),
		})
	})
	net.Run(10 * time.Minute)

	if seq < 90 {
		t.Fatalf("source produced only %d events", seq)
	}
	// The paper observed 55-80% delivery under load; a single source on
	// the lossy testbed should do at least moderately well.
	rate := float64(len(got)) / float64(seq)
	if rate < 0.3 {
		t.Errorf("delivery rate %.0f%% (%d/%d) too low for one source", 100*rate, len(got), seq)
	}
	if net.TotalDiffusionBytes() == 0 {
		t.Error("no diffusion bytes accounted")
	}
	// Radio-level collisions should exist (hidden terminals are endemic
	// in the testbed).
	if net.ChannelStats().FramesSent == 0 {
		t.Error("radio never transmitted")
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) (int, int) {
		net := diffusion.NewNetwork(diffusion.NetworkConfig{
			Seed:     seed,
			Topology: diffusion.TestbedTopology(),
		})
		interest, publication := surveillance()
		delivered := 0
		net.Node(diffusion.TestbedSink).Subscribe(interest, func(*diffusion.Message) { delivered++ })
		src := net.Node(22)
		pub := src.Publish(publication)
		seq := int32(0)
		net.Every(6*time.Second, func() {
			seq++
			src.Send(pub, diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq)})
		})
		net.Run(5 * time.Minute)
		return delivered, net.TotalDiffusionBytes()
	}
	d1, b1 := run(7)
	d2, b2 := run(7)
	if d1 != d2 || b1 != b2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", d1, b1, d2, b2)
	}
	d3, b3 := run(8)
	if d1 == d3 && b1 == b3 {
		t.Log("different seeds coincidentally equal (unlikely but legal)")
	}
}

func TestNodePanicsOnUnknownID(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     1,
		Topology: diffusion.LineTopology(3, 10),
	})
	defer func() {
		if recover() == nil {
			t.Error("unknown node ID must panic")
		}
	}()
	net.Node(99)
}

func TestNetworkAccessors(t *testing.T) {
	tp := diffusion.GridTopology(3, 3, 10)
	net := diffusion.NewNetwork(diffusion.NetworkConfig{Seed: 1, Topology: tp})
	if len(net.Nodes()) != 9 || len(net.IDs()) != 9 {
		t.Error("node accounting")
	}
	if net.Now() != 0 {
		t.Error("fresh network at time zero")
	}
	net.Run(time.Second)
	if net.Now() != time.Second {
		t.Errorf("Run should advance to 1s, at %v", net.Now())
	}
	n := net.Node(1)
	if n.MAC.ID() != 1 {
		t.Error("MAC identity")
	}
	if n.RadioStats().FramesSent != 0 {
		t.Error("idle node sent frames")
	}
	b := n.Energy(diffusion.PaperEnergyRatios(), time.Second, 1.0)
	if b.Listen <= 0 {
		t.Error("idle node should accrue listen energy")
	}
}

// TestFourSourcesCongestTheNetwork runs the Figure 8 load point (four
// sources, one event per 6 s) end to end: the network congests but the
// sink still sees a substantial share of distinct events, and the medium
// records collisions from hidden terminals.
func TestFourSourcesCongestTheNetwork(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     5,
		Topology: diffusion.TestbedTopology(),
	})
	interest, publication := surveillance()
	events := map[int32]bool{}
	net.Node(diffusion.TestbedSink).Subscribe(interest, func(m *diffusion.Message) {
		if a, ok := m.Attrs.FindActual(diffusion.KeySequence); ok {
			events[a.Val.Int32()] = true
		}
	})
	srcs := diffusion.TestbedSources()
	nodes := make([]*diffusion.Node, len(srcs))
	pubs := make([]diffusion.PublicationHandle, len(srcs))
	for i, id := range srcs {
		nodes[i] = net.Node(id)
		pubs[i] = nodes[i].Publish(publication)
	}
	seq := int32(0)
	net.Every(6*time.Second, func() {
		seq++
		for i := range srcs {
			nodes[i].Send(pubs[i], diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
				diffusion.Blob(diffusion.KeyPayload, diffusion.IS, make([]byte, 50)),
			})
		}
	})
	net.Run(10 * time.Minute)

	if seq < 90 {
		t.Fatalf("only %d event rounds", seq)
	}
	rate := float64(len(events)) / float64(seq)
	if rate < 0.25 {
		t.Errorf("distinct-event delivery %.0f%% too low", 100*rate)
	}
	ch := net.ChannelStats()
	if ch.FramesCollided == 0 {
		t.Error("four-source load should collide at hidden terminals")
	}
}
