package diffusion_test

import (
	"testing"
	"time"

	"diffusion"
)

// faultRun builds a line network with a running surveillance flow, so
// fault tests can observe delivery before and after injected failures.
func faultRun(seed int64, hops int) (net *diffusion.Network, got *int, send func()) {
	net = diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:     seed,
		Topology: diffusion.LineTopology(hops, 10),
		Radio:    ptr(diffusion.PerfectRadio()),
	})
	interest, publication := surveillance()
	count := 0
	net.Node(1).Subscribe(interest, func(*diffusion.Message) { count++ })
	src := net.Node(uint32(hops))
	pub := src.Publish(publication)
	seq := int32(0)
	send = func() {
		seq++
		src.Send(pub, diffusion.Attributes{
			diffusion.Int32(diffusion.KeySequence, diffusion.IS, seq),
		})
	}
	net.Every(5*time.Second, send)
	return net, &count, send
}

func TestCrashNodeSilencesRadioAndCore(t *testing.T) {
	net, got, _ := faultRun(21, 3)
	net.Run(2 * time.Minute)
	if *got == 0 {
		t.Fatal("no deliveries before the crash")
	}
	relay := net.Node(2)
	net.CrashNode(2)
	if !net.NodeDown(2) {
		t.Error("NodeDown(2) must be true after CrashNode")
	}
	net.CrashNode(2) // idempotent

	before := *got
	frames := relay.RadioStats().FramesSent
	net.Run(2 * time.Minute)
	if *got != before {
		t.Errorf("%d deliveries across a crashed single relay", *got-before)
	}
	if relay.RadioStats().FramesSent != frames {
		t.Error("crashed node's radio kept transmitting")
	}
}

func TestRebootNodeRestoresDelivery(t *testing.T) {
	net, got, _ := faultRun(22, 3)
	if err := net.ScheduleFaults("crash node 2 at 2m", "reboot node 2 at 4m"); err != nil {
		t.Fatal(err)
	}
	net.Run(4 * time.Minute)
	if net.NodeDown(2) {
		t.Error("NodeDown(2) must be false after RebootNode")
	}
	resumed := *got
	net.Run(4 * time.Minute)
	if *got <= resumed {
		t.Error("delivery did not resume after the relay rebooted")
	}
	// Rebooting a live node is a no-op.
	net.RebootNode(2)
	if net.NodeDown(2) {
		t.Error("RebootNode of a live node flipped its state")
	}
}

func TestReinforcedPathWalksSinkToSource(t *testing.T) {
	net, _, _ := faultRun(23, 4)
	net.Run(3 * time.Minute)
	interest, _ := surveillance()
	path := net.ReinforcedPath(1, interest, 0)
	if len(path) != 4 {
		t.Fatalf("reinforced path = %v, want the full 4-node line", path)
	}
	for i, id := range path {
		if id != uint32(i+1) {
			t.Errorf("path[%d] = %d, want %d (line order)", i, id, i+1)
		}
	}
	// The walk stops at a crashed node.
	net.CrashNode(3)
	path = net.ReinforcedPath(1, interest, 0)
	if len(path) > 3 {
		t.Errorf("path %v continues past crashed node 3", path)
	}
}

func TestChurnedRunsAreDeterministic(t *testing.T) {
	run := func() (int, int) {
		net, got, _ := faultRun(24, 4)
		inj := net.NewFaultInjector()
		inj.Churn(diffusion.ChurnConfig{
			Start: time.Minute,
			Stop:  9 * time.Minute,
			MTBF:  2 * time.Minute,
			MTTR:  30 * time.Second,
			Nodes: []uint32{2, 3},
		})
		net.Run(10 * time.Minute)
		return *got, net.TotalDiffusionBytes()
	}
	g1, b1 := run()
	g2, b2 := run()
	if g1 != g2 || b1 != b2 {
		t.Errorf("same seed diverged under churn: (%d, %d) vs (%d, %d)", g1, b1, g2, b2)
	}
}

// ScheduleFaults checks every line before it schedules any: a batch with
// one bad line leaves the network, its traces and its script untouched.
func TestScheduleFaultsRejectsTheWholeBatch(t *testing.T) {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{
		Seed:      26,
		Topology:  diffusion.LineTopology(4, 10),
		MoteNodes: []uint32{4},
	})
	tr := net.NewTrace(0)
	net.Run(time.Minute)
	for _, bad := range []string{
		"custody-split node 2 at 2m", // a verb the simulator does not know
		"crash node 2 at 30s",        // already passed
		"crash node 4 at 2m",         // a mote
		"link 2<->9 down at 2m",      // no such node
	} {
		if err := net.ScheduleFaults("crash node 2 at 90s", "link 1<->2 down at 90s", bad); err == nil {
			t.Errorf("ScheduleFaults accepted %q", bad)
		}
	}
	net.Run(2 * time.Minute)
	if net.NodeDown(2) || len(tr.Faults()) != 0 || tr.Header().FaultScript != nil {
		t.Errorf("a rejected batch was scheduled: faults %v, script %q", tr.Faults(), tr.Header().FaultScript)
	}
}

// A scheduled link fault blacks out both directions: on a two-node line no
// frame is decoded either way until the link is up again.
func TestScheduledLinkFaultBlocksBothDirections(t *testing.T) {
	net, got, _ := faultRun(27, 2)
	var decoded [2][3]int // [from-1][before, during, after the blackout]
	net.OnDecode(func(at time.Duration, from, _ uint32, _ []byte) {
		decoded[from-1][min(int(at/(2*time.Minute)), 2)]++
	})
	if err := net.ScheduleFaults("link 1<->2 down at 2m", "link 2<->1 up at 4m"); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Minute)
	before := *got
	net.Run(4 * time.Minute)
	for i, d := range decoded {
		if d[0] == 0 || d[1] != 0 || d[2] == 0 {
			t.Errorf("frames from node %d decoded before, during and after the blackout: %v", i+1, d)
		}
	}
	if before == 0 || *got == before {
		t.Errorf("deliveries: %d before the blackout, %d in all", before, *got)
	}
}
