package diffusion_test

import (
	"testing"
	"time"

	"diffusion"
)

// TestFullSystemSoak runs everything at once on the testbed for an hour of
// virtual time: the Figure 8 aggregation workload, a nested query and a
// mote tier — all sharing one 13 kb/s radio. It asserts that every
// subsystem makes progress and that the run is deterministic end to end.
func TestFullSystemSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("hour-long soak; skipped with -short")
	}
	type outcome struct {
		events     int
		audio      int
		moteUp     int
		totalBytes int
		maxEntries int
		maxSeen    int
		maxExpFrom int
		evicted    int
	}
	run := func() outcome {
		var o outcome
		// The mote tier borrows two cluster nodes; everything else keeps
		// its paper role.
		net := diffusion.NewNetwork(diffusion.NetworkConfig{
			Seed:      1234,
			Topology:  diffusion.TestbedTopology(),
			MoteNodes: []uint32{17, 16}, // radio neighbors in the cluster
		})
		interest, publication := surveillance()

		// Figure 8 workload: two sources, suppression everywhere.
		for _, id := range net.IDs() {
			if id == 17 || id == 16 {
				continue
			}
			// Scoped to the surveillance flow, as in Fig. 8: the
			// nested-query and mote flows carry no task, so a blanket
			// filter would only pass their messages on unchanged.
			net.NewSuppression(net.Node(id), diffusion.SuppressionOptions{
				Pattern: diffusion.Attributes{
					diffusion.String(diffusion.KeyTask, diffusion.EQ, "surveillance"),
				},
			})
		}
		distinct := map[int32]bool{}
		net.Node(diffusion.TestbedSink).Subscribe(interest, func(m *diffusion.Message) {
			if a, ok := m.Attrs.FindActual(diffusion.KeySequence); ok {
				distinct[a.Val.Int32()] = true
			}
		})
		srcs := []uint32{25, 22}
		pubs := make([]diffusion.PublicationHandle, len(srcs))
		for i, id := range srcs {
			pubs[i] = net.Node(id).Publish(publication)
		}
		seq := int32(0)
		net.Every(6*time.Second, func() {
			seq++
			for i, id := range srcs {
				net.Node(id).Send(pubs[i], diffusion.Attributes{
					diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
					diffusion.Blob(diffusion.KeyPayload, diffusion.IS, make([]byte, 40)),
				})
			}
		})

		// Nested query: audio node sub-tasks light 13.
		resp := diffusion.NewNestedQueryResponder(diffusion.NestedQueryConfig{
			Node: net.Node(diffusion.TestbedAudio).Node,
			TriggerWatch: diffusion.Attributes{
				diffusion.Int32(diffusion.KeyClass, diffusion.EQ, diffusion.ClassInterestValue),
				diffusion.String(diffusion.KeyType, diffusion.IS, "audio"),
			},
			InitialInterest: diffusion.Attributes{
				diffusion.String(diffusion.KeyType, diffusion.EQ, "light"),
			},
			Publication: diffusion.Attributes{
				diffusion.String(diffusion.KeyType, diffusion.IS, "audio"),
			},
			OnInitial: func(m *diffusion.Message) diffusion.Attributes {
				s, _ := m.Attrs.FindActual(diffusion.KeySequence)
				return diffusion.Attributes{s}
			},
		})
		_ = resp
		audioHeard := 0
		net.Node(diffusion.TestbedUser).Subscribe(diffusion.Attributes{
			diffusion.String(diffusion.KeyType, diffusion.EQ, "audio"),
		}, func(*diffusion.Message) { audioHeard++ })
		lightPub := net.Node(13).Publish(diffusion.Attributes{
			diffusion.String(diffusion.KeyType, diffusion.IS, "light"),
		})
		lseq := int32(0)
		net.Every(time.Minute, func() {
			lseq++
			net.Node(13).Send(lightPub, diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, lseq),
			})
		})

		// Mote tier behind a gateway at node 14 (mote side is node 17).
		gwMote := net.Mote(17)
		diffusion.NewGateway(net.Node(14), gwMote, []diffusion.GatewayMapping{{
			Tag: 5,
			Watch: diffusion.Attributes{
				diffusion.Int32(diffusion.KeyClass, diffusion.EQ, diffusion.ClassInterestValue),
				diffusion.String(diffusion.KeyType, diffusion.IS, "photo"),
			},
			Publication: diffusion.Attributes{diffusion.String(diffusion.KeyType, diffusion.IS, "photo")},
		}})
		moteReadings := 0
		net.Node(diffusion.TestbedSink).Subscribe(diffusion.Attributes{
			diffusion.String(diffusion.KeyType, diffusion.EQ, "photo"),
		}, func(*diffusion.Message) { moteReadings++ })
		leaf := net.Mote(16)
		net.Every(30*time.Second, func() { leaf.Send(5, 321) })

		net.Run(time.Hour)

		o.events = len(distinct)
		o.audio = audioHeard
		o.moteUp = moteReadings
		o.totalBytes = net.TotalDiffusionBytes()
		for _, n := range net.Nodes() {
			if e := n.Entries(); e > o.maxEntries {
				o.maxEntries = e
			}
			if s := n.SeenSize(); s > o.maxSeen {
				o.maxSeen = s
			}
			if x := n.ExpFromSize(); x > o.maxExpFrom {
				o.maxExpFrom = x
			}
			o.evicted += n.Stats.SeenEvicted
		}
		return o
	}

	o := run()
	if o.events < 300 {
		t.Errorf("surveillance delivered only %d distinct events", o.events)
	}
	if o.audio < 20 {
		t.Errorf("nested query produced only %d audio deliveries", o.audio)
	}
	if o.moteUp < 50 {
		t.Errorf("mote tier delivered only %d readings", o.moteUp)
	}
	// After an hour of traffic the housekeeping GC must have kept every
	// per-node table bounded by the active workload, not by run length:
	// a handful of distinct interests, and a seen/exploratory cache no
	// larger than the traffic of one SeenTTL window.
	if o.maxEntries > 20 {
		t.Errorf("interest table grew to %d entries", o.maxEntries)
	}
	if o.maxSeen > 2000 || o.evicted != 0 {
		t.Errorf("seen cache grew to %d entries, %d evicted before their time", o.maxSeen, o.evicted)
	}
	if o.maxExpFrom > 2000 {
		t.Errorf("exploratory-source table grew to %d entries", o.maxExpFrom)
	}
	// Determinism across the whole stack.
	if o2 := run(); o != o2 {
		t.Errorf("soak run is not deterministic:\n%+v\n%+v", o, o2)
	}
}

// TestChurnSoak runs the surveillance workload on the testbed for half an
// hour of virtual time while every relay churns under an MTBF/MTTR
// process. It asserts the network keeps delivering, the protocol tables
// stay bounded through the crash/reboot cycles, and the whole faulted run
// is deterministic.
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("long churn soak; skipped with -short")
	}
	type outcome struct {
		events  int
		crashes int
		reboots int
		maxSeen int
		evicted int
		totalB  int
	}
	run := func() outcome {
		net := diffusion.NewNetwork(diffusion.NetworkConfig{
			Seed:     777,
			Topology: diffusion.TestbedTopology(),
		})
		interest, publication := surveillance()
		source := diffusion.TestbedSources()[3]
		distinct := map[int32]bool{}
		net.Node(diffusion.TestbedSink).Subscribe(interest, func(m *diffusion.Message) {
			if a, ok := m.Attrs.FindActual(diffusion.KeySequence); ok {
				distinct[a.Val.Int32()] = true
			}
		})
		src := net.Node(source)
		pub := src.Publish(publication)
		seq := int32(0)
		net.Every(6*time.Second, func() {
			seq++
			src.Send(pub, diffusion.Attributes{
				diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
				diffusion.Blob(diffusion.KeyPayload, diffusion.IS, make([]byte, 50)),
			})
		})
		var relays []uint32
		for _, id := range net.IDs() {
			if id != diffusion.TestbedSink && id != source {
				relays = append(relays, id)
			}
		}
		inj := net.NewFaultInjector()
		inj.Churn(diffusion.ChurnConfig{
			Start: 2 * time.Minute,
			Stop:  28 * time.Minute,
			MTBF:  3 * time.Minute,
			MTTR:  time.Minute,
			Nodes: relays,
		})
		net.Run(30 * time.Minute)

		var o outcome
		o.events = len(distinct)
		sum := inj.Summarize()
		o.crashes, o.reboots = sum[diffusion.FaultNodeDown], sum[diffusion.FaultNodeUp]
		for _, n := range net.Nodes() {
			if s := n.SeenSize(); s > o.maxSeen {
				o.maxSeen = s
			}
			o.evicted += n.Stats.SeenEvicted
		}
		o.totalB = net.TotalDiffusionBytes()
		return o
	}
	o := run()
	if o.crashes < 5 {
		t.Errorf("churn injected only %d crashes in 26 minutes", o.crashes)
	}
	if o.reboots < o.crashes {
		t.Errorf("%d crashes but %d reboots; churn must heal what it breaks", o.crashes, o.reboots)
	}
	if o.events < 50 {
		t.Errorf("only %d distinct events delivered under churn", o.events)
	}
	if o.maxSeen > 2000 || o.evicted != 0 {
		t.Errorf("seen cache grew to %d entries, %d evicted, through crash/reboot cycles", o.maxSeen, o.evicted)
	}
	if o2 := run(); o != o2 {
		t.Errorf("churn soak is not deterministic:\n%+v\n%+v", o, o2)
	}
}
