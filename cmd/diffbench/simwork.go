package main

import (
	"fmt"
	"time"

	"diffusion"
	"diffusion/internal/experiments"
	"diffusion/internal/filters"
	"diffusion/internal/message"
	"diffusion/internal/stats"
)

// simSpec describes one simulated workload on diffusion.Network.
type simSpec struct {
	topology    func() *diffusion.Topology
	sinks       []uint32
	sources     []uint32
	interest    diffusion.Attributes
	publication diffusion.Attributes
	interval    time.Duration // each source's event period
	payload     int
	// syncSeq makes every source report the same sequence numbers, the
	// paper's Fig. 8 set-up where one event is seen by all sources;
	// otherwise each source numbers its own events in a disjoint range.
	syncSeq     bool
	suppression bool
	// hops, when set, is the hop count from sources[i] to sinks[j], and
	// latency is sampled on the pairs latencyHops apart only: pairs at two
	// distances make the pooled distribution bimodal and its median a
	// property of the seed.
	hops        [][]int
	latencyHops int
	// runLength is the simulated time of one run; seedsPerSecond and
	// minutesPerSecond scale the work to -seconds by a fixed rule, never by
	// the wall clock, so simulated counts depend only on the arguments.
	runLength        time.Duration
	seedsPerSecond   float64
	minutesPerSecond float64
}

const seqStride = 1 << 20

const gridSide = 32

func gridSpec() simSpec {
	// The workload of experiments.DefaultParallelScale: corner sinks pull
	// data across the whole grid, sources sit at the edge midpoints and the
	// centre.
	n := uint32(gridSide * gridSide)
	spec := simSpec{
		topology: func() *diffusion.Topology { return diffusion.GridTopology(gridSide, gridSide, 9) },
		sinks:    []uint32{1, gridSide, n - gridSide + 1, n},
		sources: []uint32{
			gridSide/2 + 1,
			gridSide*(gridSide/2) + 1,
			gridSide*(gridSide/2) + gridSide,
			gridSide*(gridSide-1) + gridSide/2,
			gridSide*(gridSide/2) + gridSide/2,
		},
		interest:         diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.EQ, "wide-area")},
		publication:      diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.IS, "wide-area")},
		interval:         5 * time.Second,
		minutesPerSecond: 2.5,
		latencyHops:      gridSide / 2,
	}
	// At 9 m spacing a frame reaches the eight surrounding nodes (13.5 m solid
	// range), so the hop count is the larger coordinate difference: 16 from
	// a source to the twelve nearer corners, 31 to the eight farther ones.
	for _, src := range spec.sources {
		var row []int
		for _, sink := range spec.sinks {
			dx := int((src-1)%gridSide) - int((sink-1)%gridSide)
			dy := int((src-1)/gridSide) - int((sink-1)/gridSide)
			row = append(row, max(dx, -dx, dy, -dy))
		}
		spec.hops = append(spec.hops, row)
	}
	return spec
}

func fig8Spec() simSpec {
	// experiments.DefaultFig8 at four sources with suppression.
	return simSpec{
		topology: diffusion.TestbedTopology,
		sinks:    []uint32{diffusion.TestbedSink},
		sources:  diffusion.TestbedSources(),
		interest: diffusion.Attributes{
			diffusion.String(diffusion.KeyTask, diffusion.EQ, "surveillance"),
			diffusion.Int32(diffusion.KeyInterval, diffusion.IS, 6000),
		},
		publication:    diffusion.Attributes{diffusion.String(diffusion.KeyTask, diffusion.IS, "surveillance")},
		interval:       6 * time.Second,
		payload:        50,
		syncSeq:        true,
		suppression:    true,
		runLength:      30 * time.Minute,
		seedsPerSecond: 8,
	}
}

// simNet is one instantiated network with the benchmark's application on
// it. Runs use one shard, so every callback is on the caller's goroutine.
type simNet struct {
	spec      simSpec
	net       *diffusion.Network
	pubAt     map[int32]time.Duration
	first     []map[int32]arrival // per sink: first delivery of each sequence number
	repeats   int
	published int
	filters   []*filters.Suppression
}

// arrival is an event's first delivery at a sink.
type arrival struct {
	at time.Duration
	// plain: it came as plain Data over a reinforced path. An exploratory
	// event is flooded with forwarding jitter at every hop and takes twice as
	// long, so latency is sampled on plain arrivals only; with both, the
	// distribution has two modes and its median moves with the seed's mix.
	plain bool
}

func buildSim(spec simSpec, seed int64, traceSampling float64) *simNet {
	s := &simNet{
		spec:  spec,
		pubAt: map[int32]time.Duration{},
		net: diffusion.NewNetwork(diffusion.NetworkConfig{
			Seed:          seed,
			Topology:      spec.topology(),
			TraceSampling: traceSampling,
		}),
	}
	if spec.suppression {
		for _, id := range s.net.IDs() {
			s.filters = append(s.filters, filters.NewSuppression(s.net.Node(id).Node, s.net.NodeEnv(id), filters.SuppressionOptions{}))
		}
	}
	for _, id := range spec.sinks {
		first := map[int32]arrival{}
		s.first = append(s.first, first)
		clock := s.net.NodeEnv(id)
		s.net.Node(id).Subscribe(spec.interest, func(m *diffusion.Message) {
			a, ok := m.Attrs.FindActual(diffusion.KeySequence)
			if !ok {
				return
			}
			seq := a.Val.Int32()
			if _, dup := first[seq]; dup {
				s.repeats++
				return
			}
			first[seq] = arrival{at: clock.Now(), plain: m.Class == message.Data}
		})
	}
	nodes := make([]*diffusion.Node, len(spec.sources))
	pubs := make([]diffusion.PublicationHandle, len(spec.sources))
	for i, id := range spec.sources {
		nodes[i] = s.net.Node(id)
		pubs[i] = nodes[i].Publish(spec.publication)
	}
	payload := make([]byte, spec.payload)
	round := int32(0)
	s.net.Every(spec.interval, func() {
		round++
		for i := range nodes {
			seq := round
			if !spec.syncSeq {
				seq += int32(i) * seqStride
			}
			if _, seen := s.pubAt[seq]; !seen {
				s.pubAt[seq] = s.net.Now()
				s.published++
			}
			extra := diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq)}
			if spec.payload > 0 {
				extra = append(extra, diffusion.Blob(diffusion.KeyPayload, diffusion.IS, payload))
			}
			nodes[i].Send(pubs[i], extra)
		}
	})
	return s
}

// warmPeriods is how many event periods set-up simulates: the interest
// flood, the first exploratory round and the reinforcements it triggers. A
// fixed simulated span rather than "until the first reinforced delivery",
// because on a lossy radio that instant differs by whole periods from seed to
// seed and would make set-up time a property of the seed.
const warmPeriods = 3

// setup simulates the warm-up span.
func (s *simNet) setup() { s.net.Run(warmPeriods * s.spec.interval) }

// delivered counts distinct (event, sink) deliveries.
func (s *simNet) delivered() int {
	n := 0
	for _, first := range s.first {
		n += len(first)
	}
	return n
}

// latencies returns the simulated publish-to-first-delivery time in µs of
// every sampled (event, sink) pair published at or after since, and how many
// deliveries name an event that was never published or precede it.
func (s *simNet) latencies(since time.Duration) (us []int64, impossible int) {
	for sink, first := range s.first {
		for seq, a := range first {
			pub, ok := s.pubAt[seq]
			if !ok || a.at < pub {
				impossible++
				continue
			}
			if pub < since || !a.plain || (s.spec.hops != nil && s.spec.hops[seq/seqStride][sink] != s.spec.latencyHops) {
				continue
			}
			us = append(us, (a.at - pub).Microseconds())
		}
	}
	sortInt64(us)
	return us, impossible
}

// sampleMessage is a data message shaped like the workload's events.
func (s *simNet) sampleMessage() *message.Message {
	attrs := s.spec.publication.Clone()
	attrs = append(attrs, diffusion.Int32(diffusion.KeySequence, diffusion.IS, 12345))
	if s.spec.payload > 0 {
		attrs = append(attrs, diffusion.Blob(diffusion.KeyPayload, diffusion.IS, make([]byte, s.spec.payload)))
	}
	attrs = append(attrs, diffusion.Int32(diffusion.KeyClass, diffusion.IS, diffusion.ClassDataValue))
	return &message.Message{Class: message.Data, ID: message.ID{RandID: 0x5eed, PktNum: 12345}, PrevHop: 1, NextHop: 2, Attrs: attrs}
}

// simCosts turns calibrated slices into the time-based metrics. A slice's
// work is the radio frames it simulated — deliveries are too few to count
// slice by slice — and the run's frames per event turn that into events.
func simCosts(m map[string]float64, slices []slice, frames []float64, events float64) {
	framesPerSecond, cpuPerFrame := quietTenth(slices, frames)
	m["events_per_s"] = framesPerSecond * events / sumFloat(frames)
	m["cpu_us_per_event"] = cpuPerFrame * 1e6 * sumFloat(frames) / events
}

// kernelEvents is how many events the kernel-only timing fires.
func kernelEvents(o options) int {
	if o.short {
		return 100_000
	}
	return 2_000_000
}

func slowdown(slices []slice) float64 {
	var f []float64
	for _, s := range slices {
		f = append(f, s.slower())
	}
	return medianFloat(f)
}

// gridNetworks is how many networks, each with its own seed derived from
// -seed, share a run's simulated time: several seeds for the simulated
// latency, several set-ups to take a median of.
const gridNetworks = 4

// gridSlice is the simulated time of one measured slice.
const gridSlice = 30 * time.Second

// runGrid measures the grid workload: gridNetworks networks one after the
// other. Its event is the simulated one: a radio frame put on the channel,
// what sim.Kernel, radio and mac work on. A network delivers about one
// (event, sink) pair in seven over its 16- and 31-hop paths, and which paths
// its seed gets reinforced decides how much traffic it carries: per frame,
// allocations and CPU repeat within a few percent from seed to seed, per
// delivery they differ by an eighth from one network to the next however
// long it runs.
func runGrid(spec simSpec, o options, trace bool) (*report, error) {
	rep := newReport()
	nets := gridNetworks
	minutes := int(spec.minutesPerSecond*o.seconds.Seconds()) / nets
	if trace {
		minutes = minutes * 4 / 10
	}
	if o.short {
		nets = 1
	}
	if o.short || minutes < 1 {
		minutes = 1
	}
	seeds := deriveSeeds(o.seed, nets)

	var (
		sl                                     slicer
		s                                      *simNet
		setupS                                 []float64
		slices                                 []slice
		frames                                 []float64
		lat                                    []int64
		events, published, impossible, repeats int
		bytes                                  int
		warmBytes, warmDelivered               []int // after each network's set-up
		allocs                                 uint64
		wall                                   time.Duration
		totals                                 = map[string]float64{}
	)
	// setUp builds one network and simulates its warm-up span.
	setUp := func(seed int64) *simNet {
		sl.begin()
		n := buildSim(spec, seed, 0)
		n.setup()
		setupS = append(setupS, sl.end().refWall())
		return n
	}
	for _, seed := range seeds {
		s = setUp(seed)
		warmBytes, warmDelivered = append(warmBytes, s.net.TotalDiffusionBytes()), append(warmDelivered, s.delivered())
		since := s.net.Now()
		d0, b0, p0 := s.delivered(), s.net.TotalDiffusionBytes(), s.published
		snap0 := s.net.MetricsSnapshot()
		m0 := mallocs()
		for step := time.Duration(0); step < time.Duration(minutes)*time.Minute; step += gridSlice {
			f0 := s.net.ChannelStats().FramesSent
			sl.begin()
			s.net.Run(gridSlice)
			slices = append(slices, sl.end())
			frames = append(frames, float64(s.net.ChannelStats().FramesSent-f0))
			wall += slices[len(slices)-1].wall
		}
		allocs += mallocs() - m0
		snap1 := s.net.MetricsSnapshot()
		for k := range snap1.Totals {
			totals[k] += snap1.Total(k) - snap0.Total(k)
		}
		l, imp := s.latencies(since)
		lat = append(lat, l...)
		impossible += imp
		repeats += s.repeats
		events += s.delivered() - d0
		bytes += s.net.TotalDiffusionBytes() - b0
		published += s.published - p0
	}
	sortInt64(lat)
	// Every seed is set up a second time: more set-ups for the median, and
	// the determinism check — the same seed must have sent the same bytes and
	// made the same deliveries. The network that ran stays referenced for the
	// heap reading.
	for i, seed := range seeds {
		if again := setUp(seed); again.net.TotalDiffusionBytes() != warmBytes[i] || again.delivered() != warmDelivered[i] {
			rep.failed++
			rep.problems = append(rep.problems, fmt.Sprintf("two set-ups with seed %d diverged: the simulation is not deterministic", seed))
		}
	}
	sl.cal.release()
	heap := heapLiveMiB() // the last network is still referenced

	rep.attempted = published
	rep.failed += impossible + repeats
	if impossible > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d deliveries of events never published, or before publication", impossible))
	}
	if repeats > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d events delivered twice to one sink", repeats))
	}
	if events == 0 || len(lat) == 0 {
		rep.problems = append(rep.problems, "nothing was delivered in the measured run")
		return rep, nil
	}
	expected := published * len(spec.sinks)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d networks x %d simulated minutes in %.2fs of host time: %.0f frames, published %d events, delivered %d (event, sink) pairs of %d, %d latency samples over %d hops; host %.2fx slower than the reference host",
			nets, minutes, wall.Seconds(), sumFloat(frames), published, events, expected, len(lat), spec.latencyHops, slowdown(slices)))
	if !trace {
		m := rep.metrics
		m["setup_s"] = medianFloat(setupS)
		total := sumFloat(frames)
		simCosts(m, slices, frames, total)
		m["latency_p50_us"] = float64(percentile(lat, 0.50))
		m["allocs_per_event"] = float64(allocs) / total
		m["wire_bytes_per_event"] = float64(bytes) / total
		m["heap_live_mb"] = heap
		return rep, nil
	}

	simLayers(rep, s, totals, events, expected, float64(nets*minutes)*60, wall)
	rep.metrics["bench.latency_p95_us"] = float64(percentile(lat, 0.95))
	rep.metrics["bench.latency_p99_us"] = float64(percentile(lat, 0.99))
	rep.metrics["bench.latency_p999_us"] = float64(percentile(lat, 0.999))
	// The sharded kernel must reproduce the sequential run exactly; whether
	// it is also faster is the number ROADMAP item 4 decides on.
	cfg := experiments.DefaultParallelScale()
	cfg.Seed = o.seed
	cfg.Duration = time.Duration(minutes/2+1) * time.Minute
	w1, n1, sha1 := experiments.MeasureParallelScale(cfg, 1)
	w4, n4, sha4 := experiments.MeasureParallelScale(cfg, 4)
	if sha1 != sha4 || n1 != n4 {
		rep.failed++
		rep.problems = append(rep.problems, fmt.Sprintf("grid fingerprint differs between 1 and 4 shards: %s/%d vs %s/%d", sha1, n1, sha4, n4))
	}
	rep.metrics["sim.shards4_speedup"] = w1.Seconds() / w4.Seconds()
	rep.notes = append(rep.notes, fmt.Sprintf("shards 1 vs 4 over %v: fingerprint %s, %d deliveries, %.2fs vs %.2fs", cfg.Duration, sha1, n1, w1.Seconds(), w4.Seconds()))
	microKernel(rep, kernelEvents(o))
	microCodec(rep, o.seconds/50, s.sampleMessage(), spec.interest.With(diffusion.Int32(diffusion.KeyClass, diffusion.IS, diffusion.ClassInterestValue)))
	return rep, nil
}

// simLayers derives the per-layer numbers of simulated runs from the
// telemetry counters they added, summed over the runs.
func simLayers(rep *report, s *simNet, totals map[string]float64, events, expected int, simSeconds float64, wall time.Duration) {
	d := func(name string) float64 { return totals[name] }
	m := rep.metrics
	ev := float64(events)
	m["sim.sim_s_per_wall_s"] = simSeconds / wall.Seconds()
	if frames := d("radio.channel.frames_sent"); frames > 0 {
		m["sim.wall_ns_per_frame"] = float64(wall.Nanoseconds()) / frames
	}
	if rx := d("radio.channel.frames_delivered") + d("radio.channel.frames_lost") + d("radio.channel.frames_collided") + d("radio.channel.frames_half_duplex"); rx > 0 {
		m["radio.collided_share"] = d("radio.channel.frames_collided") / rx
		m["radio.lost_share"] = d("radio.channel.frames_lost") / rx
	}
	m["mac.fragments_per_event"] = d("mac.fragments_sent") / ev
	m["mac.backoff_share"] = d("mac.backoff_seconds") / (simSeconds * float64(len(s.net.IDs())))
	if q := d("mac.messages_queued"); q > 0 {
		m["mac.dropped_share"] = d("mac.messages_dropped") / q
	}
	m["core.duplicates_per_event"] = d("core.cache_hits") / ev
	m["core.data_no_path"] = d("core.data_no_path")
	m["core.neg_reinforcements"] = d("core.neg_reinforcements")
	if sent := d("core.bytes_sent"); sent > 0 {
		m["core.ctrl_bytes_share"] = 1 - d("core.sent.data")*float64(len(s.sampleMessage().Marshal()))/sent
	}
	m["core.delivered_share"] = ev / float64(expected)
	m["filters.invocations_per_event"] = d("core.filter_invocations") / ev
}

// runFig8 measures many short runs of the testbed, one per derived seed and
// one to a slice, the way the paper's experiments are actually run: each
// slice builds the network, sets it up and runs it.
func runFig8(spec simSpec, o options, trace bool) (*report, error) {
	rep := newReport()
	n := int(spec.seedsPerSecond * o.seconds.Seconds())
	length := spec.runLength
	if trace {
		n = n * 3 / 10
	}
	if o.short {
		n, length = 2, time.Minute
	}
	if n < 2 {
		n = 2
	}
	seeds := deriveSeeds(o.seed, n)

	var (
		sl                                     slicer
		slices                                 []slice
		events, published, repeats, impossible int
		suppressed, passed                     int
		perRun, setupS, frames                 []float64
		runP50                                 []float64
		lat                                    []int64
		runWall                                time.Duration
		last                                   *simNet
		firstBytes, firstEvents                int
		totals                                 = map[string]float64{}
	)
	m0 := mallocs()
	for i, seed := range seeds {
		sl.begin()
		start := time.Now()
		s := buildSim(spec, seed, 0)
		s.setup()
		setup := time.Since(start)
		start = time.Now()
		s.net.Run(length - s.net.Now())
		runWall += time.Since(start)
		slices = append(slices, sl.end())
		frames = append(frames, float64(s.net.ChannelStats().FramesSent))
		setupS = append(setupS, setup.Seconds()/slices[i].slower())

		l, imp := s.latencies(0)
		lat = append(lat, l...)
		if len(l) > 0 {
			runP50 = append(runP50, float64(percentile(l, 0.50)))
		}
		impossible += imp
		repeats += s.repeats
		events += s.delivered()
		published += s.published
		if s.delivered() > 0 {
			perRun = append(perRun, float64(s.net.TotalDiffusionBytes())/float64(s.delivered()))
		}
		for k, v := range s.net.MetricsSnapshot().Totals {
			totals[k] += v
		}
		for _, f := range s.filters {
			suppressed, passed = suppressed+f.Suppressed, passed+f.Passed
		}
		if i == 0 {
			firstBytes, firstEvents = s.net.TotalDiffusionBytes(), s.delivered()
		}
		last = s
	}
	m1 := mallocs()
	sl.cal.release()
	heap := heapLiveMiB()
	sortInt64(lat)

	// A repeated seed must reproduce its run exactly.
	again := buildSim(spec, seeds[0], 0)
	again.net.Run(length)
	if again.net.TotalDiffusionBytes() != firstBytes || again.delivered() != firstEvents {
		rep.failed++
		rep.problems = append(rep.problems, fmt.Sprintf("seed %d repeated: %d bytes / %d events, then %d / %d", seeds[0], firstBytes, firstEvents, again.net.TotalDiffusionBytes(), again.delivered()))
	}
	rep.attempted = published
	rep.failed += impossible
	if impossible > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d deliveries of events never published, or before publication", impossible))
	}
	if events == 0 || len(lat) == 0 {
		rep.problems = append(rep.problems, "nothing was delivered")
		return rep, nil
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d seeds x %v simulated, %.2fs of host time in Run: published %d events, delivered %d, repeated at the sink %d, %d latency samples; host %.2fx slower than the reference host",
			n, length, runWall.Seconds(), published, events, repeats, len(lat), slowdown(slices)))
	if !trace {
		m := rep.metrics
		m["setup_s"] = medianFloat(setupS)
		simCosts(m, slices, frames, float64(events))
		// Statistics of a run are averaged over runs, as the figure's y-axis
		// is: each run's bytes per distinct event, and each run's median
		// latency (pooled, the median would sit on one of the few values the
		// testbed's four-hop paths allow and read the same for most seeds).
		m["latency_p50_us"] = stats.Mean(runP50)
		m["allocs_per_event"] = float64(m1-m0) / float64(events)
		m["wire_bytes_per_event"] = stats.Mean(perRun)
		m["heap_live_mb"] = heap
		return rep, nil
	}

	simLayers(rep, last, totals, events, published, float64(n)*length.Seconds(), runWall)
	if suppressed+passed > 0 {
		rep.metrics["filters.suppressed_share"] = float64(suppressed) / float64(suppressed+passed)
	}
	rep.metrics["bench.latency_p95_us"] = float64(percentile(lat, 0.95))
	rep.metrics["bench.latency_p99_us"] = float64(percentile(lat, 0.99))
	rep.metrics["bench.latency_p999_us"] = float64(percentile(lat, 0.999))
	// What tracing every message costs the simulator, as a same-run ratio
	// with the two settings alternating.
	var plain, traced time.Duration
	for _, seed := range seeds[:min(n, 8)] {
		for _, sampling := range []float64{0, 1} {
			s := buildSim(spec, seed, sampling)
			start := time.Now()
			s.net.Run(length)
			if sampling == 0 {
				plain += time.Since(start)
			} else {
				traced += time.Since(start)
			}
		}
	}
	rep.metrics["telemetry.trace_tax"] = traced.Seconds() / plain.Seconds()
	// The paper's claim, through the experiment package's own harness.
	cfg := experiments.DefaultFig8()
	cfg.Seeds, cfg.Duration = seeds[:min(n, 16)], length
	with := experiments.RunFig8Point(cfg, len(spec.sources), true).BytesPerEvent.Mean
	without := experiments.RunFig8Point(cfg, len(spec.sources), false).BytesPerEvent.Mean
	if without > 0 {
		rep.metrics["filters.savings_share"] = 1 - with/without
	}
	rep.notes = append(rep.notes, fmt.Sprintf("bytes/event over %d seeds: %.0f with suppression, %.0f without", len(cfg.Seeds), with, without))
	microKernel(rep, kernelEvents(o))
	microCodec(rep, o.seconds/50, last.sampleMessage(), spec.interest.With(diffusion.Int32(diffusion.KeyClass, diffusion.IS, diffusion.ClassInterestValue)))
	return rep, nil
}
