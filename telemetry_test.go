package diffusion_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"diffusion"
)

// telemetryRun builds the standard line network with a running flow, like
// faultRun, for telemetry observations.
func telemetryRun(seed int64, hops int) *diffusion.Network {
	net, _, _ := faultRun(seed, hops)
	return net
}

func TestMetricsSnapshotCoversAllLayers(t *testing.T) {
	net := telemetryRun(61, 3)
	net.Run(3 * time.Minute)
	snap := net.MetricsSnapshot()
	if snap.At != net.Now() {
		t.Errorf("snapshot stamped %v, clock says %v", snap.At, net.Now())
	}
	// Every layer must contribute: radio, MAC, core, energy per node, plus
	// the shared channel scope.
	for _, key := range []string{
		"radio.frames_sent", "radio.bytes_sent",
		"mac.messages_sent", "mac.fragments_sent",
		"core.sent.interest", "core.received.data", "core.gradients_created",
		"energy.total_j",
	} {
		if snap.Total(key) <= 0 {
			t.Errorf("network total %q = %v, want > 0", key, snap.Total(key))
		}
	}
	ch := snap.Scopes["channel"]
	if ch == nil || ch["radio.channel.frames_sent"] <= 0 {
		t.Errorf("channel scope missing frame counts: %v", ch)
	}
	relay := snap.Scopes["node-2"]
	if relay == nil || relay["core.interests_seen"] <= 0 {
		t.Errorf("node-2 scope missing core counters: %v", relay)
	}
	var buf bytes.Buffer
	snap.Write(&buf)
	if !strings.Contains(buf.String(), "metrics @") {
		t.Errorf("snapshot render:\n%s", buf.String())
	}
}

func TestMetricsFreezeWhileDetachedResumeAfterRestart(t *testing.T) {
	net := telemetryRun(62, 3)
	net.Run(2 * time.Minute)
	net.CrashNode(2)
	down := net.MetricsSnapshot().Scopes["node-2"]

	net.Run(3 * time.Minute)
	still := net.MetricsSnapshot().Scopes["node-2"]
	for _, key := range []string{"radio.frames_sent", "mac.messages_sent", "core.sent.interest"} {
		if still[key] != down[key] {
			t.Errorf("%s moved while node 2 was down: %v -> %v", key, down[key], still[key])
		}
	}

	net.RebootNode(2)
	net.Run(3 * time.Minute)
	after := net.MetricsSnapshot().Scopes["node-2"]
	for _, key := range []string{"radio.frames_sent", "mac.messages_sent"} {
		if after[key] <= still[key] {
			t.Errorf("%s did not resume after reboot: %v -> %v", key, still[key], after[key])
		}
	}
}

func TestTraceDropAccounting(t *testing.T) {
	net := telemetryRun(65, 3)
	tr := net.NewTrace(10)
	net.Run(5 * time.Minute)
	if tr.Len() != 10 {
		t.Fatalf("trace holds %d events at limit 10", tr.Len())
	}
	if tr.Dropped() == 0 {
		t.Fatal("a busy 5-minute run must overflow a 10-event trace")
	}
	var buf bytes.Buffer
	tr.Summary(&buf)
	if !strings.Contains(buf.String(), "WARNING") || !strings.Contains(buf.String(), "dropped at the trace limit") {
		t.Errorf("summary does not warn about drops:\n%s", buf.String())
	}
	// The exported header carries the drop counts.
	if h := tr.Header(); h.DroppedEvents != tr.Dropped() {
		t.Errorf("header dropped_events=%d, Dropped()=%d", h.DroppedEvents, tr.Dropped())
	}
}

func TestTraceFaultLimitIndependent(t *testing.T) {
	net := telemetryRun(66, 3)
	tr := net.NewTrace(0)
	tr.SetFaultLimit(2)
	net.Run(time.Minute)
	net.SetLinkDown(1, 2, true)
	net.SetLinkDown(1, 2, false)
	net.SetLinkDown(2, 3, true) // third fault: over the bound
	if len(tr.Faults()) != 2 {
		t.Errorf("trace holds %d faults at fault limit 2", len(tr.Faults()))
	}
	if tr.DroppedFaults() != 1 {
		t.Errorf("DroppedFaults() = %d, want 1", tr.DroppedFaults())
	}
	// Message events keep flowing: the bounds are independent.
	before := tr.Len()
	net.Run(time.Minute)
	if tr.Len() <= before {
		t.Error("message events stopped when the fault bound filled")
	}
	var buf bytes.Buffer
	tr.Summary(&buf)
	if !strings.Contains(buf.String(), "1 faults dropped") {
		t.Errorf("summary does not warn about dropped faults:\n%s", buf.String())
	}
}

func TestTraceNoWarningUnderLimit(t *testing.T) {
	net := telemetryRun(67, 3)
	tr := net.NewTrace(0)
	net.Run(time.Minute)
	if tr.Dropped() != 0 || tr.DroppedFaults() != 0 {
		t.Fatalf("unexpected drops: %d events, %d faults", tr.Dropped(), tr.DroppedFaults())
	}
	var buf bytes.Buffer
	tr.Summary(&buf)
	if strings.Contains(buf.String(), "WARNING") {
		t.Errorf("summary warns without drops:\n%s", buf.String())
	}
}

func TestTraceHeaderDescribesRun(t *testing.T) {
	net := telemetryRun(68, 3)
	tr := net.NewTrace(0)
	if err := net.ScheduleFaults("crash node 2 at 30s", "reboot node 2 at 50s"); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Minute)

	h := tr.Header()
	if h.Seed != 68 || h.Nodes != 3 {
		t.Errorf("header seed=%d nodes=%d", h.Seed, h.Nodes)
	}
	if h.InterestInterval == "" || h.GradientLifetime == "" || h.TTL == 0 {
		t.Errorf("header missing protocol rates: %+v", h)
	}
	if want := []string{"crash node 2 at 30s", "reboot node 2 at 50s"}; !slices.Equal(h.FaultScript, want) {
		t.Errorf("fault script: %q, want %q", h.FaultScript, want)
	}
	// A trace begun after the faults were scheduled lists them too.
	if late := net.NewTrace(0).Header(); !slices.Equal(late.FaultScript, h.FaultScript) {
		t.Errorf("a later trace's fault script: %q, want %q", late.FaultScript, h.FaultScript)
	}

	// The exported JSONL round-trips the header.
	var buf bytes.Buffer
	if err := tr.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "crash node 2") {
		t.Error("JSONL header line does not carry the fault script")
	}
}

func TestMetricsAccessorPanicsOnUnknownNode(t *testing.T) {
	net := telemetryRun(69, 3)
	defer func() {
		if recover() == nil {
			t.Error("Metrics(99) did not panic")
		}
	}()
	net.Metrics(99)
}
