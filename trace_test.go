package diffusion_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"diffusion"
	"diffusion/internal/message"
)

func tracedRun(t *testing.T) (*diffusion.Network, *diffusion.Trace) {
	t.Helper()
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     13,
		Topology: diffusion.LineTopology(4, 10),
		Radio:    ptr(diffusion.PerfectRadio()),
	})
	tr := net.NewTrace(0)
	interest, publication := surveillance()
	net.Node(1).Subscribe(interest, nil)
	src := net.Node(4)
	pub := src.Publish(publication)
	seq := int32(0)
	net.Every(5*time.Second, func() {
		seq++
		src.Send(pub, diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq)})
	})
	net.Run(3 * time.Minute)
	return net, tr
}

func TestTraceRecordsAllClasses(t *testing.T) {
	_, tr := tracedRun(t)
	if tr.Len() == 0 {
		t.Fatal("trace empty")
	}
	byClass := tr.CountByClass()
	for _, c := range []diffusion.MessageClass{
		diffusion.ClassInterest,
		diffusion.ClassData,
		diffusion.ClassExploratoryData,
		diffusion.ClassPositiveReinf,
	} {
		if byClass[c] == 0 {
			t.Errorf("no %v events traced", c)
		}
	}
	// Every node processed something.
	byNode := tr.CountByNode()
	for id := uint32(1); id <= 4; id++ {
		if byNode[id] == 0 {
			t.Errorf("node %d has no trace events", id)
		}
	}
}

func TestTraceOriginations(t *testing.T) {
	_, tr := tracedRun(t)
	orig := map[diffusion.MessageClass]int{}
	seen := map[message.ID]bool{}
	for _, e := range tr.Events() {
		if e.Verb.String() == "org" {
			if seen[e.ID] {
				t.Errorf("origination %v traced twice", e.ID)
			}
			seen[e.ID] = true
			orig[e.Class]++
			if e.Peer != e.Node || e.Hop != 0 {
				t.Errorf("origination %+v: want its own node as peer, hop 0", e)
			}
		}
	}
	// The sink originates interests (one per refresh); the source
	// originates data.
	if orig[diffusion.ClassInterest] < 2 {
		t.Errorf("interest originations: %d", orig[diffusion.ClassInterest])
	}
	if orig[diffusion.ClassData]+orig[diffusion.ClassExploratoryData] < 20 {
		t.Errorf("data originations: %v", orig)
	}
	// Originations are a subset of processing events.
	if len(seen) >= tr.Len() {
		t.Error("originations must be fewer than processing events")
	}
}

func TestTraceLatencyProbe(t *testing.T) {
	_, tr := tracedRun(t)
	// Find a data origination at node 4 and its first processing at node
	// 1: latency must be positive and under a second on an idle line.
	first := map[message.ID]time.Duration{}
	for _, e := range tr.Events() {
		if _, ok := first[e.ID]; !ok && e.Node == 1 {
			first[e.ID] = e.At
		}
	}
	for _, e := range tr.Events() {
		if e.Verb.String() == "org" && e.Node == 4 && e.Class == diffusion.ClassData {
			at, ok := first[e.ID]
			if !ok {
				continue
			}
			lat := at - e.At
			if lat <= 0 || lat > 2*time.Second {
				t.Errorf("implausible 3-hop latency %v", lat)
			}
			return
		}
	}
	t.Error("no traced data origination reached the sink")
}

func TestTraceReports(t *testing.T) {
	_, tr := tracedRun(t)
	var buf bytes.Buffer
	tr.Summary(&buf)
	if !strings.Contains(buf.String(), "busiest nodes") {
		t.Errorf("summary:\n%s", buf.String())
	}
	buf.Reset()
	if err := tr.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"verb":"org"`) || !strings.Contains(buf.String(), `"verb":"fwd"`) {
		t.Error("export should mark originations and forwards")
	}
}

// faultRecords returns the trace's exported fault records, checking that
// they sit in time order among the message records.
func faultRecords(t *testing.T, tr *diffusion.Trace) []diffusion.TraceRecord {
	t.Helper()
	var out []diffusion.TraceRecord
	recs := tr.Records()
	for i, r := range recs {
		if i > 0 && r.US < recs[i-1].US {
			t.Fatalf("record %d at %dus follows one at %dus", i, r.US, recs[i-1].US)
		}
		if r.Layer == "fault" {
			out = append(out, r)
		}
	}
	return out
}

func TestTraceRecordsFaultsAndRepairs(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     15,
		Topology: diffusion.LineTopology(4, 10),
		Radio:    ptr(diffusion.PerfectRadio()),
	})
	tr := net.NewTrace(0)
	interest, publication := surveillance()
	net.Node(1).Subscribe(interest, nil)
	src := net.Node(4)
	pub := src.Publish(publication)
	seq := int32(0)
	net.Every(5*time.Second, func() {
		seq++
		src.Send(pub, diffusion.Attributes{diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq)})
	})
	// Crash the only relay mid-run and bring it back: on a line there is no
	// alternate path, so repair can only complete after the reboot — and
	// the positive reinforcement that follows is the repair signature.
	if err := net.ScheduleFaults("crash node 2 at 2m", "reboot node 2 at 3m"); err != nil {
		t.Fatal(err)
	}
	net.Run(6 * time.Minute)

	faults := tr.Faults()
	if len(faults) != 2 {
		t.Fatalf("traced %d faults, want 2 (down+up): %v", len(faults), faults)
	}
	if faults[0].Kind != diffusion.FaultNodeDown || faults[0].Node != 2 {
		t.Errorf("first fault = %v", faults[0])
	}
	if faults[1].Kind != diffusion.FaultNodeUp || faults[1].Node != 2 {
		t.Errorf("second fault = %v", faults[1])
	}
	if got := tr.Repairs(); got != 1 {
		t.Errorf("Repairs() = %d, want 1 (reinforcement resumed after the outage)", got)
	}

	var buf bytes.Buffer
	tr.Summary(&buf)
	if !strings.Contains(buf.String(), "faults: 1 node-down, 1 node-up") ||
		!strings.Contains(buf.String(), "repairs: 1/1") {
		t.Errorf("summary missing fault line:\n%s", buf.String())
	}
	recs := faultRecords(t, tr)
	if len(recs) != 2 || recs[0].Verb != "node-down" || recs[0].Node != 2 ||
		recs[1].Verb != "node-up" || recs[1].Node != 2 {
		t.Errorf("exported faults %+v, want node-down and node-up of node 2", recs)
	}
}

func TestTraceRecordsLinkFaults(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     16,
		Topology: diffusion.LineTopology(3, 10),
	})
	tr := net.NewTrace(0)
	if err := net.ScheduleFaults("link 1<->2 down at 1m", "link 1<->2 up at 2m"); err != nil {
		t.Fatal(err)
	}
	net.Run(3 * time.Minute)
	downs, ups := 0, 0
	for _, f := range tr.Faults() {
		switch f.Kind {
		case diffusion.FaultLinkDown:
			downs++
		case diffusion.FaultLinkUp:
			ups++
		}
	}
	// A scheduled link fault acts on both directions.
	if downs != 2 || ups != 2 {
		t.Errorf("link faults: %d down, %d up, want 2 each", downs, ups)
	}
	for _, r := range faultRecords(t, tr) {
		if r.Verb == "link-down" && r.Node == 1 && r.Peer == 2 {
			return
		}
	}
	t.Errorf("export missing link-down 1<->2: %+v", tr.Faults())
}

// A network records into its newest trace, faults as well as messages: an
// older trace keeps what it holds and gains nothing.
func TestOnlyNewestTraceRecordsFaults(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     17,
		Topology: diffusion.LineTopology(3, 10),
	})
	first := net.NewTrace(0)
	second := net.NewTrace(0)
	net.CrashNode(2)
	if f := first.Faults(); len(f) != 0 {
		t.Errorf("the first trace recorded %v after a second one began", f)
	}
	if f := second.Faults(); len(f) != 1 || f[0].Kind != diffusion.FaultNodeDown || f[0].Node != 2 {
		t.Errorf("the newest trace recorded %v, want node 2 down", f)
	}
}

func TestTraceLimit(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     14,
		Topology: diffusion.LineTopology(3, 10),
	})
	tr := net.NewTrace(10)
	net.Node(1).Subscribe(diffusion.Attributes{
		diffusion.String(diffusion.KeyTask, diffusion.EQ, "x"),
	}, nil)
	net.Run(5 * time.Minute)
	if tr.Len() > 10 {
		t.Errorf("trace exceeded its limit: %d", tr.Len())
	}

	// A limit below the node count is still the bound: the testbed's 14
	// nodes share 5 events, and the rest are counted as dropped.
	net = diffusion.NewNetwork(diffusion.NetworkConfig{Seed: 1, Topology: diffusion.TestbedTopology()})
	tr = net.NewTrace(5)
	interest, _ := surveillance()
	net.Node(diffusion.TestbedSink).Subscribe(interest, nil)
	net.Run(2 * time.Minute)
	if tr.Len() > 5 || tr.Dropped() == 0 {
		t.Errorf("NewTrace(5) on 14 nodes holds %d events, dropped %d", tr.Len(), tr.Dropped())
	}
}
