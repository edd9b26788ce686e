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
	net.After(2*time.Minute, func() { net.CrashNode(2) })
	net.After(4*time.Minute, func() { net.RebootNode(2) })
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

func TestEnergyDepletionKillsNode(t *testing.T) {
	net, _, _ := faultRun(25, 3)
	inj := net.NewFaultInjector()
	// The budget is tiny, so the relay dies as soon as the poll notices any
	// radio activity; it must never come back.
	inj.DepleteEnergy(2, 1e-9, 30*time.Second)
	net.Run(5 * time.Minute)
	if !net.NodeDown(2) {
		t.Errorf("relay energy consumed %v, but node never died", net.NodeEnergyConsumed(2))
	}
	if downs := inj.Summarize().NodeDowns; downs != 1 {
		t.Errorf("depletion recorded %d node-down events, want exactly 1", downs)
	}
}
