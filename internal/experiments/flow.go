package experiments

import (
	"time"

	"diffusion"
	"diffusion/internal/stats"
)

// surveillanceInterest and surveillanceData name the Figure 8 event flow.
func surveillanceInterest() diffusion.Attributes {
	return diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.EQ, "surveillance"),
		diffusion.Int32(diffusion.KeyInterval, diffusion.IS, 6000),
	}
}

func surveillanceData() diffusion.Attributes {
	return diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.IS, "surveillance"),
	}
}

// flow is the surveillance workload most experiments measure: sinks
// subscribe to surveillanceInterest, and sources publish surveillanceData
// and send one event per interval, all carrying the same sequence number
// ("given sequence numbers that are synchronized at experiment start").
type flow struct {
	cfg      diffusion.NetworkConfig // a nil Topology is the testbed
	sinks    []uint32                // nil: the testbed sink
	push     bool                    // one-phase push: SubscribeLocal and SendPush
	sources  []uint32
	interval time.Duration // zero: the paper's 6 s
	payload  []byte        // padding attribute on every event; nil sends none
	until    time.Duration // if non-zero, sources send only while Now() <= until
	// setup runs on the new network before the subscriptions (filters, a
	// trace); tick runs at each interval before the sequence number
	// advances.
	setup, tick func(*diffusion.Network)
}

// arrival is a sequence number's first delivery at a sink.
type arrival struct {
	seq int32
	at  time.Duration
}

// flowRun is a started flow. Its fields fill in as the network runs.
type flowRun struct {
	net  *diffusion.Network
	sent []time.Duration // origination time of sequence number i+1
	got  [][]arrival     // per sink, first deliveries in arrival order
	dups int             // deliveries beyond each sink's first, summed
}

// start builds the network and arms the flow. Every random draw and event
// key depends on the order of calls, so it is fixed: NewNetwork, setup,
// subscriptions in sink order, publications in source order, Every. The
// caller arms its own events after start returns and then runs the network.
func (f flow) start() *flowRun {
	if f.cfg.Topology == nil {
		f.cfg.Topology = diffusion.TestbedTopology()
	}
	if f.sinks == nil {
		f.sinks = []uint32{diffusion.TestbedSink}
	}
	if f.interval == 0 {
		f.interval = 6 * time.Second
	}
	net := diffusion.NewNetwork(f.cfg)
	r := &flowRun{net: net, got: make([][]arrival, len(f.sinks))}
	if f.setup != nil {
		f.setup(net)
	}
	for i, id := range f.sinks {
		seen := map[int32]bool{}
		deliver := func(m *diffusion.Message) {
			a, ok := m.Attrs.FindActual(diffusion.KeySequence)
			if !ok {
				return
			}
			if seq := a.Val.Int32(); seen[seq] {
				r.dups++
			} else {
				seen[seq] = true
				r.got[i] = append(r.got[i], arrival{seq, net.Now()})
			}
		}
		if f.push {
			net.Node(id).SubscribeLocal(surveillanceInterest(), deliver)
		} else {
			net.Node(id).Subscribe(surveillanceInterest(), deliver)
		}
	}
	nodes := make([]*diffusion.Node, len(f.sources))
	pubs := make([]diffusion.PublicationHandle, len(f.sources))
	for i, id := range f.sources {
		nodes[i] = net.Node(id)
		pubs[i] = nodes[i].Publish(surveillanceData())
	}
	net.Every(f.interval, func() {
		if f.until != 0 && net.Now() > f.until {
			return
		}
		if f.tick != nil {
			f.tick(net)
		}
		r.sent = append(r.sent, net.Now())
		seq := int32(len(r.sent))
		for i, n := range nodes {
			attrs := diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq)}
			if f.payload != nil {
				attrs = append(attrs, diffusion.Blob(diffusion.KeyPayload, diffusion.IS, f.payload))
			}
			if f.push {
				n.SendPush(pubs[i], attrs)
			} else {
				n.Send(pubs[i], attrs)
			}
		}
	})
	return r
}

// run starts the flow and runs the network for d.
func (f flow) run(d time.Duration) *flowRun {
	r := f.start()
	r.net.Run(d)
	return r
}

// delivery is the fraction of sequence numbers that reached sink i.
func (r *flowRun) delivery(i int) float64 {
	if len(r.sent) == 0 {
		return 0
	}
	return float64(len(r.got[i])) / float64(len(r.sent))
}

// bytesPerEvent is all diffusion traffic per distinct event at the first
// sink (per byte if none arrived).
func (r *flowRun) bytesPerEvent() float64 {
	return float64(r.net.TotalDiffusionBytes()) / float64(max(len(r.got[0]), 1))
}

// overSeeds runs once for each seed, in order, and summarizes each of its
// measurements across the seeds.
func overSeeds(seeds []int64, once func(seed int64) []float64) []stats.Summary {
	var cols [][]float64
	for _, seed := range seeds {
		for i, x := range once(seed) {
			if i == len(cols) {
				cols = append(cols, nil)
			}
			cols[i] = append(cols[i], x)
		}
	}
	out := make([]stats.Summary, len(cols))
	for i, c := range cols {
		out[i] = stats.Summarize(c)
	}
	return out
}
