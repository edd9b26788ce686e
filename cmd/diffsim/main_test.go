package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunSingleExperiments(t *testing.T) {
	// The cheap analytic experiments run at full fidelity; the simulated
	// ones are exercised with tiny overrides.
	for exp, want := range map[string]string{
		"model":  "990",
		"energy": "duty-cycle",
		"micro":  "106 bytes",
	} {
		var buf bytes.Buffer
		if err := run(&buf, exp, false, 0, 0, false, "", 0); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("%s output missing %q:\n%s", exp, want, buf.String())
		}
	}
}

func TestRunSimulatedExperimentTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "fig8", true, 1, 5*time.Minute, false, "", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Errorf("fig8 output:\n%s", buf.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run(&buf, "bogus", false, 0, 0, false, "", 0)
	if err == nil {
		t.Fatal("unknown experiment must error")
	}
	// The error must name the rejected input and list every valid
	// experiment, so a typo is self-correcting from the message alone.
	if !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("error does not name the bad input: %v", err)
	}
	for _, name := range []string{
		"fig8", "fig9", "fig11", "model", "energy", "micro",
		"sweep-exploratory", "sweep-asymmetry", "ablate-negrf",
		"duty-cycle", "scale", "push-pull", "latency", "breakdown",
		"sweep-capture", "churn", "all",
	} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list experiment %q: %v", name, err)
		}
	}
}

func TestRunAllBranchesTiny(t *testing.T) {
	// Exercise every simulated experiment branch with minimal runs; the
	// shape assertions live in internal/experiments — this checks the CLI
	// plumbing end to end.
	for _, exp := range []string{
		"fig9", "fig11", "sweep-exploratory", "sweep-asymmetry",
		"ablate-negrf", "duty-cycle", "scale", "push-pull", "latency",
		"breakdown", "sweep-capture", "churn", "broker",
	} {
		var buf bytes.Buffer
		if err := run(&buf, exp, true, 1, 3*time.Minute, false, "", 0); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", exp)
		}
	}
}

func TestRunAllTiny(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", true, 1, 2*time.Minute, false, "", 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 8", "Figure 9", "Figure 11", "990", "duty-cycle", "Scalability"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("all output missing %q", want)
		}
	}
}
