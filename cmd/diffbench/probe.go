package main

import (
	"fmt"
	"io"
	"time"
)

// probeCustody is a diagnostic, not a benchmark workload: custody transfer
// on the hot path of a 2-hop UDP line with memory-only custody queues. It
// is excluded from BENCHMARK.json because no wall-clock number repeats on
// it today (README.md says why); it exists so the issue that fixes that can
// reproduce the instability from one command.
func probeCustody(w io.Writer, o options) int {
	spec := liveSpec{nodes: 3, udp: true, payload: 32, custody: true}
	ln, d, _, err := assemble(spec, o.seed, nil)
	if err != nil {
		fmt.Fprintln(w, "probe custody: set-up failed:", err)
		return 1
	}
	defer ln.close()
	d.drain = 3 * time.Second

	c0 := ln.counters()
	ph := d.run(windowThroughput, o.seconds, 0)
	c1 := ln.counters()
	d.collect(&ph)
	var custodyRetransmits, replayed uint64
	for _, st := range ln.stacks {
		custodyRetransmits += st.stats.CustodyRetransmits.Load()
		replayed += st.queue.Counters().Replayed
	}
	fmt.Fprintln(w, readHost())
	fmt.Fprintf(w, "probe custody: 2-hop UDP line, custody transfer on, window %d, %.1fs, seed %d\n", windowThroughput, o.seconds.Seconds(), o.seed)
	fmt.Fprintf(w, "  offered                  %d\n", ph.offered())
	fmt.Fprintf(w, "  events_per_s             %.0f\n", float64(ph.delivered)/ph.wall.Seconds())
	fmt.Fprintf(w, "  latency_p99_us           %.1f\n", float64(percentile(ph.latencies, 0.99))/1e3)
	fmt.Fprintf(w, "  undelivered_after_drain  %d (%.2f%% of offered, %v after load stopped)\n", ph.offered()-ph.delivered, 100*float64(ph.offered()-ph.delivered)/float64(ph.offered()), d.drain)
	fmt.Fprintf(w, "  neg_reinforcements       %d\n", c1.negRF-c0.negRF)
	fmt.Fprintf(w, "  data_no_path             %d\n", c1.noPath-c0.noPath)
	fmt.Fprintf(w, "  custody_retransmits      %d\n", custodyRetransmits)
	fmt.Fprintf(w, "  custody_replays          %d\n", replayed)
	return 0
}
