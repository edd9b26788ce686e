package flightpath

import (
	"strings"
	"testing"

	"diffusion/internal/telemetry"
)

// rec builds one span record.
func rec(us int64, node uint32, verb, class string, hops int, flow uint16, cause string) telemetry.Record {
	return telemetry.Record{
		US: us, Node: node, Layer: "core", Verb: verb, Class: class,
		ID: "00000001:1", Hops: hops, Flow: flow, Cause: cause,
	}
}

// recvFrom builds a recv span record, which names the neighbor it came from.
func recvFrom(us int64, node, peer uint32, class string, hops int, flow uint16) telemetry.Record {
	r := rec(us, node, "recv", class, hops, flow, "")
	r.Peer = peer
	return r
}

// TestAssembleDeliveredFlow reconstructs a 3-node chain: node 1
// originates, node 2 relays, node 3 delivers.
func TestAssembleDeliveredFlow(t *testing.T) {
	recs := []telemetry.Record{
		rec(100, 1, "enqueue", "DATA", 0, 7, ""),
		rec(150, 1, "tx", "DATA", 0, 7, ""),
		recvFrom(200, 2, 1, "DATA", 0, 7),
		rec(250, 2, "tx", "DATA", 1, 7, ""),
		recvFrom(320, 3, 2, "DATA", 1, 7),
		rec(330, 3, "deliver", "DATA", 1, 7, ""),
		// A second, unrelated flow interleaves.
		rec(artTime, 9, "recv", "DATA", 0, 9, ""),
	}
	flows := Assemble(recs)
	if len(flows) != 2 {
		t.Fatalf("got %d flows, want 2", len(flows))
	}
	f := flows[0]
	if f.Flow != 7 || f.Origin != 1 || !f.Delivered || f.DeliverNode != 3 {
		t.Errorf("flow: %+v", f)
	}
	if f.E2EUS() != 230 {
		t.Errorf("e2e %d, want 230", f.E2EUS())
	}
	if len(f.Hops) != 2 {
		t.Fatalf("hops: %+v", f.Hops)
	}
	if f.Hops[0].TxNode != 1 || f.Hops[0].RxNode != 2 || f.Hops[0].LatencyUS() != 50 {
		t.Errorf("hop0: %+v", f.Hops[0])
	}
	if f.Hops[1].TxNode != 2 || f.Hops[1].RxNode != 3 || f.Hops[1].LatencyUS() != 70 {
		t.Errorf("hop1: %+v", f.Hops[1])
	}
	if got := PathString(f); got != "n1 -(50µs)-> n2 -(70µs)-> n3" {
		t.Errorf("path %q", got)
	}
	if !strings.Contains(Localize(f), "delivered at node 3") {
		t.Errorf("localize: %s", Localize(f))
	}
}

const artTime = 400

// TestAssembleDroppedFlow localizes a drop with no custody.
func TestAssembleDroppedFlow(t *testing.T) {
	recs := []telemetry.Record{
		rec(10, 1, "tx", "DATA", 0, 5, ""),
		rec(20, 4, "recv", "DATA", 0, 5, ""),
		rec(25, 4, "drop", "DATA", 0, 5, "link-refused"),
	}
	f := Assemble(recs)[0]
	if !f.Dropped || f.DropNode != 4 || f.DropCause != "link-refused" {
		t.Fatalf("flow: %+v", f)
	}
	loc := Localize(f)
	if !strings.Contains(loc, "died at node 4") || !strings.Contains(loc, "link-refused") ||
		!strings.Contains(loc, "custody not enabled") {
		t.Errorf("localize: %s", loc)
	}
}

// TestAssembleCustodyFlow: a drop with a custodian is parked, not dead.
func TestAssembleCustodyFlow(t *testing.T) {
	recs := []telemetry.Record{
		rec(10, 1, "tx", "EXPLORATORY_DATA", 0, 3, ""),
		rec(20, 2, "recv", "EXPLORATORY_DATA", 0, 3, ""),
		{US: 22, Node: 2, Layer: "custody", Verb: "custody-accept",
			Class: "EXPLORATORY_DATA", ID: "00000001:1", Flow: 3},
	}
	f := Assemble(recs)[0]
	if f.Dropped || len(f.CustodyNodes) != 1 || f.CustodyNodes[0] != 2 {
		t.Fatalf("flow: %+v", f)
	}
	if !strings.Contains(Localize(f), "in custody at node 2") {
		t.Errorf("localize: %s", Localize(f))
	}
}

// TestReinforcementEdges: reinforcement records share the flow but stay
// out of the hop chain.
func TestReinforcementEdges(t *testing.T) {
	recs := []telemetry.Record{
		rec(10, 1, "tx", "EXPLORATORY_DATA", 0, 8, ""),
		recvFrom(20, 2, 1, "EXPLORATORY_DATA", 0, 8),
		rec(30, 2, "tx", "POSITIVE_REINFORCEMENT", 0, 8, ""),
		rec(40, 1, "recv", "NEGATIVE_REINFORCEMENT", 0, 8, ""),
	}
	f := Assemble(recs)[0]
	if len(f.Hops) != 1 {
		t.Fatalf("reinforcements leaked into hops: %+v", f.Hops)
	}
	if len(f.Reinforcements) != 2 || f.Reinforcements[0].Negative || !f.Reinforcements[1].Negative {
		t.Errorf("edges: %+v", f.Reinforcements)
	}
	if f.Class != "EXPLORATORY_DATA" {
		t.Errorf("class %q", f.Class)
	}
}

// A flood's chain follows the copy each relay forwarded: the origin and
// relays hear each other's re-floods, but those receptions are not hops.
// On a line 1-2-3 the chain reads n1 -> n2 -> n3, and node 3's re-flood,
// heard by node 2, is no loss hop.
func TestFloodChainSkipsEchoes(t *testing.T) {
	const bc = 0xffffffff
	tx := func(us int64, node, dst uint32, hops int) telemetry.Record {
		r := rec(us, node, "tx", "INTEREST", hops, 4, "")
		r.Peer = dst
		return r
	}
	f := Assemble([]telemetry.Record{
		tx(100, 1, bc, 1),
		recvFrom(150, 2, 1, "INTEREST", 1, 4),
		tx(200, 2, bc, 2),
		recvFrom(250, 1, 2, "INTEREST", 2, 4),
		recvFrom(250, 3, 2, "INTEREST", 2, 4),
		tx(300, 3, bc, 3),
		recvFrom(330, 2, 3, "INTEREST", 3, 4),
	})[0]
	if got := PathString(f); got != "n1 -(50µs)-> n2 -(50µs)-> n3" {
		t.Errorf("flood chain %q, want n1 -(50µs)-> n2 -(50µs)-> n3", got)
	}
	if got := PerHopLatencies([]*Flow{f}); len(got) != 2 || got[0] != 50 || got[1] != 50 {
		t.Errorf("per-hop latencies %v, want [50 50]", got)
	}
}

// On a line 1-2-3-4-5 after node 3 died, node 2's tx toward 3 is the loss
// hop. Node 5's reception from node 4, which no record shows reached,
// pairs with nothing: it is neither a hop nor a per-hop latency.
func TestDeadRelayPairsNothing(t *testing.T) {
	tx := rec(200, 2, "tx", "DATA", 2, 6, "")
	tx.Peer = 3
	f := Assemble([]telemetry.Record{
		rec(100, 1, "tx", "DATA", 1, 6, ""),
		recvFrom(150, 2, 1, "DATA", 1, 6),
		tx,
		recvFrom(314, 5, 4, "DATA", 2, 6),
		rec(315, 5, "drop", "DATA", 2, 6, "duplicate"),
	})[0]
	if got := PathString(f); got != "n1 -(50µs)-> n2 -> ?" {
		t.Errorf("chain %q, want n1 -(50µs)-> n2 -> ?", got)
	}
	if got := PerHopLatencies([]*Flow{f}); len(got) != 1 || got[0] != 50 {
		t.Errorf("per-hop latencies %v, want [50]", got)
	}
}

// TestPercentile covers the nearest-rank estimator's edges.
func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 50); got != -1 {
		t.Errorf("empty: %d", got)
	}
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    float64
		want int64
	}{{0, 10}, {50, 50}, {90, 90}, {100, 100}}
	for _, c := range cases {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	// The input must not be reordered.
	if s[0] != 10 || s[9] != 100 {
		t.Error("Percentile mutated its input")
	}
}

// TestLatencyCollectors.
func TestLatencyCollectors(t *testing.T) {
	recs := []telemetry.Record{
		rec(100, 1, "tx", "DATA", 0, 7, ""),
		recvFrom(150, 2, 1, "DATA", 0, 7),
		rec(160, 2, "deliver", "DATA", 0, 7, ""),
	}
	flows := Assemble(recs)
	hops := PerHopLatencies(flows)
	if len(hops) != 1 || hops[0] != 50 {
		t.Errorf("hop latencies: %v", hops)
	}
	e2e := E2ELatencies(flows)
	if len(e2e) != 1 || e2e[0] != 60 {
		t.Errorf("e2e latencies: %v", e2e)
	}
}

func TestParseFlowID(t *testing.T) {
	for _, bad := range []string{"zz", "0", "10000"} {
		if _, err := ParseFlowID(bad); err == nil {
			t.Errorf("ParseFlowID(%q): want error", bad)
		}
	}
	if id, err := ParseFlowID("0x00a3"); err != nil || id != 0xa3 {
		t.Errorf("ParseFlowID(0x00a3) = %x, %v", id, err)
	}
	if id, err := ParseFlowID(""); err != nil || id != 0 {
		t.Errorf("ParseFlowID(\"\") = %x, %v: want no flow selected", id, err)
	}
}
