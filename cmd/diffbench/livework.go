package main

import (
	"fmt"
	"runtime"
	"time"

	"diffusion/internal/attr"
)

var liveSpecs = map[string]liveSpec{
	wLine5UDP:      {nodes: 6, udp: true, payload: 32},
	wLine5Reliable: {nodes: 6, udp: true, reliable: true, payload: 1024},
	wBrokerMesh:    {nodes: 3, payload: 256, subs: 100_000},
}

// assemble builds the line, installs the application and drives set-up to
// the first delivery over a reinforced path.
func assemble(spec liveSpec, seed int64, tr *tracer) (*liveNet, *driver, time.Duration, error) {
	var ln *liveNet
	var err error
	// The ports are reserved by binding and closing them, so another
	// process can take one in between; try again with fresh ones.
	for attempt := 0; attempt < 3; attempt++ {
		if ln, err = buildLine(spec, seed, tr); err == nil {
			break
		}
		if tr != nil {
			tr.nodes = nil
		}
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("assemble line: %w", err)
	}
	d, install := newDriver(spec, ln, seed)
	if err := d.warm(); err != nil {
		ln.close()
		return nil, nil, 0, err
	}
	return ln, d, install, nil
}

// sliceLength is how long the generator runs between two calibrations.
const sliceLength = 200 * time.Millisecond

// heapEvents is how many events the stacks carry before the live heap is
// read: a fixed count, so the duplicate caches hold the same number of IDs
// however fast the host is.
const heapEvents = 20_000

// runLive measures one live workload: repeated set-up, the live heap after a
// fixed number of events, then phase L (one event in flight: latency) and
// phase T (a window in flight: throughput, CPU, allocations, bytes), both
// closed loop and both cut into slices; phase T's are timed against the
// calibration kernel.
func runLive(spec liveSpec, o options) (*report, error) {
	rep := newReport()
	// A line sets up in 20 ms, most of it forwarding jitter, and single
	// set-ups differ by a quarter; the broker's takes a third of a second.
	setups, warmEvents := 41, heapEvents
	if spec.subs > 0 {
		setups = 9
	}
	if o.short {
		spec.subs /= 100
		setups, warmEvents = 1, heapEvents/10
	}
	var sl slicer
	var ln *liveNet
	var d *driver
	var setupS []float64
	// Each set-up takes its own seed: how long the interest, the first event
	// and its reinforcement wait in the nodes' forwarding jitter is drawn from
	// it, and with one seed the median would be that draw's. The last line
	// built is the one measured.
	for _, seed := range deriveSeeds(o.seed, setups) {
		if ln != nil {
			ln.close()
			ln, d = nil, nil
			runtime.GC()
			sl.stale()
		}
		sl.begin()
		var err error
		if ln, d, _, err = assemble(spec, seed, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, sl.end().refWall())
	}
	defer ln.close()
	first := d.next

	d.run(windowThroughput, time.Minute, warmEvents)
	sl.cal.release()
	heap := heapLiveMiB()

	// Latency is read slice by slice, so a burst of interference spoils one
	// slice's percentile and not the run's. It stays in host time: with one
	// event in flight most of it is hand-offs and wake-ups, which the
	// calibration kernel does not track.
	var p50 []float64
	samples, lostL := 0, 0
	for stop := time.Now().Add(o.seconds * 2 / 5); time.Now().Before(stop); {
		ph := d.run(windowLatency, sliceLength, 0)
		d.collect(&ph)
		lostL += ph.lost
		if len(ph.latencies) == 0 {
			continue
		}
		samples += len(ph.latencies)
		p50 = append(p50, float64(percentile(ph.latencies, 0.50))/1e3)
	}

	var slices []slice
	var work []float64
	events, lost := 0, 0
	var busy time.Duration
	sl.stale()
	c0, m0 := ln.counters(), mallocs()
	for stop := time.Now().Add(o.seconds * 3 / 5); time.Now().Before(stop); {
		sl.begin()
		ph := d.run(windowThroughput, sliceLength, 0)
		slices = append(slices, sl.end())
		work = append(work, float64(ph.returned))
		lost += ph.lost
		events += ph.returned
		busy += ph.wall
	}
	m1, c1 := mallocs(), ln.counters()

	rep.attempted = int(d.next - first)
	var duplicated int
	rep.failed, duplicated, rep.problems = d.verify(first, d.next)
	if events == 0 || samples == 0 {
		rep.problems = append(rep.problems, "nothing was delivered in a measured phase")
		return rep, nil
	}
	rep.metrics["setup_s"] = medianFloat(setupS)
	perSecond, cpuSeconds := quietTenth(slices, work)
	rep.metrics["events_per_s"] = perSecond
	rep.metrics["latency_p50_us"] = medianFloat(p50)
	rep.metrics["cpu_us_per_event"] = cpuSeconds * 1e6
	rep.metrics["allocs_per_event"] = float64(m1-m0) / float64(events)
	rep.metrics["wire_bytes_per_event"] = float64(c1.coreBytes-c0.coreBytes) / float64(events)
	rep.metrics["heap_live_mb"] = heap
	rep.notes = append(rep.notes,
		fmt.Sprintf("phase L (window %d): %d slices, %d latency samples, lost %d", windowLatency, len(p50), samples, lostL),
		fmt.Sprintf("phase T (window %d): %d slices, delivered %d, lost %d; %.0f events/s of host time", windowThroughput, len(slices), events, lost, float64(events)/busy.Seconds()),
		fmt.Sprintf("set-ups (reference s): %.4f", setupS),
		fmt.Sprintf("offered %d, duplicated %d, %d set-ups; the host ran %.2fx slower than the reference host (median over slices)", rep.attempted, duplicated, setups, slowdown(slices)))
	return rep, nil
}

// traceLive is the traced run of a live workload. It reports per-layer
// numbers only, in host time: a window-1 phase with the seams recording,
// then window-32 slices alternating recording off and on, then the timed
// calls into single layers.
func traceLive(spec liveSpec, o options) (*report, error) {
	rep := newReport()
	if o.short {
		spec.subs /= 100
	}
	tr := &tracer{}
	ln, d, install, err := assemble(spec, o.seed, tr)
	if err != nil {
		return nil, err
	}
	defer ln.close()
	first := d.next

	const (
		phaseOff = iota
		phaseLat
		phaseThr
	)
	tr.phase.Store(phaseLat)
	tr.on.Store(true)
	phaseL := d.run(windowLatency, o.seconds*3/10, 0)
	d.collect(&phaseL)
	// The untraced reference and the traced slices alternate, so both see
	// the same heap size and the same host.
	var plainEvents, tracedEvents, offered int
	var plainWall, tracedWall time.Duration
	var c counters
	for i := 0; i < 4; i++ {
		tr.on.Store(false)
		tr.phase.Store(phaseOff)
		ph := d.run(windowThroughput, o.seconds/16, 0)
		plainEvents, plainWall = plainEvents+ph.returned, plainWall+ph.wall
		tr.phase.Store(phaseThr)
		tr.on.Store(true)
		c0 := ln.counters()
		ph = d.run(windowThroughput, o.seconds/16, 0)
		c.add(c0, ln.counters())
		tracedEvents, tracedWall, offered = tracedEvents+ph.returned, tracedWall+ph.wall, offered+ph.offered()
	}
	tr.on.Store(false)
	rep.attempted = int(d.next - first)
	rep.failed, _, rep.problems = d.verify(first, d.next)
	// Stopping the loops orders every record they appended before the reads
	// below; the single-layer timings further down also need them quiet,
	// because they read process-wide allocation counts.
	ln.close()
	if tracedEvents == 0 || plainEvents == 0 || len(phaseL.latencies) == 0 {
		rep.problems = append(rep.problems, "nothing was delivered in a measured phase")
		return rep, nil
	}
	msg, interest := d.sampleMessage()

	m := rep.metrics
	events := float64(tracedEvents)
	m["transport.datagrams_per_event"] = float64(c.datagrams) / events
	m["transport.bytes_per_event"] = float64(c.wireBytes) / events
	m["transport.acks_per_event"] = float64(c.acks) / events
	m["transport.retransmits"] = float64(c.retransmits)
	m["transport.recv_dropped"] = float64(c.recvDropped)
	m["transport.queue_drops"] = float64(c.queueDrops)
	m["transport.send_errors"] = float64(c.sendErrors)
	m["core.duplicates_per_event"] = float64(c.duplicates) / events
	m["core.data_no_path"] = float64(c.noPath)
	m["core.neg_reinforcements"] = float64(c.negRF)
	if c.coreBytes > 0 {
		m["core.ctrl_bytes_share"] = 1 - float64(c.dataSent*len(msg.Marshal()))/float64(c.coreBytes)
	}
	m["core.delivered_share"] = events / float64(offered)
	if spec.subs > 0 {
		m["core.subscribe_us"] = float64(install.Microseconds()) / float64(spec.subs)
		// Every event also reaches the umbrella subscription once.
		m["core.deliveries_per_event"] = float64(c.localDeliveries)/events - 1
	}

	lat := selfTimes(tr.flights(phaseLat), spec.nodes)
	if lat.flights == 0 {
		rep.problems = append(rep.problems, "the traced latency phase sampled no complete flight")
		return rep, nil
	}
	m["transport.send_us"] = medianNS(lat.linkSend) / 1e3
	m["transport.wire_us"] = medianNS(lat.wire) / 1e3
	m["rt.queue_wait_p50_us"] = medianNS(lat.queueWait) / 1e3
	m["rt.queue_wait_p99_us"] = pctNS(lat.queueWait, 0.99) / 1e3
	m["core.send_us"] = medianNS(lat.coreSend) / 1e3
	m["core.receive_us"] = medianNS(lat.coreRecv) / 1e3
	m["core.deliver_us"] = medianNS(lat.coreDeliv) / 1e3
	m["bench.trace_coverage"] = medianFloat(lat.coverage)
	m["bench.latency_p95_us"] = float64(percentile(phaseL.latencies, 0.95)) / 1e3
	m["bench.latency_p99_us"] = float64(percentile(phaseL.latencies, 0.99)) / 1e3
	m["bench.latency_p999_us"] = float64(percentile(phaseL.latencies, 0.999)) / 1e3
	m["bench.trace_overhead"] = (events / tracedWall.Seconds()) / (float64(plainEvents) / plainWall.Seconds())
	// Under a full window the node whose loop makes work wait longest is
	// the bottleneck.
	thr := selfTimes(tr.flights(phaseThr), spec.nodes)
	for i, waits := range thr.waitByNode {
		if w := medianNS(waits) / 1e3; len(waits) > 0 && w >= m["rt.busiest_wait_p50_us"] {
			m["rt.busiest_wait_p50_us"], m["rt.busiest_node"] = w, float64(i+1)
		}
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("traced window-%d phase: %d samples, %d complete flights, p50 %.1f us of host time", windowLatency, len(phaseL.latencies), lat.flights, float64(percentile(phaseL.latencies, 0.5))/1e3),
		fmt.Sprintf("window-%d slices: %d events traced (%d complete flights), %d untraced", windowThroughput, tracedEvents, thr.flights, plainEvents))
	if o.traceOut != "" {
		if err := tr.writeSpans(o.traceOut, []string{phaseLat: "latency", phaseThr: "throughput"}); err != nil {
			return nil, err
		}
	}

	var vecs, probes []attr.Vec
	for i := 0; i < spec.subs; i++ {
		vecs = append(vecs, d.subAttrs(i))
	}
	for _, name := range d.topicNames {
		p := msg.Attrs.Clone()
		for k := range p {
			if p[k].Key == attr.KeyTask {
				p[k] = attr.StringAttr(attr.KeyTask, attr.IS, name)
			}
		}
		probes = append(probes, p)
	}
	budget := o.seconds / 50
	microCodec(rep, budget, msg, interest)
	microCustody(rep, msg.Marshal())
	if spec.subs > 0 {
		microMatch(rep, budget, vecs, probes)
	}
	return rep, nil
}
