package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate testdata/quick and the EXPERIMENTS.md blocks")

// deterministic names every experiment whose output is a pure function of
// its seeds: the quick goldens and the EXPERIMENTS.md blocks pin these byte
// for byte.
var deterministic = []string{
	"fig8", "fig9", "model", "energy", "micro",
	"sweep-exploratory", "sweep-asymmetry", "ablate-negrf", "duty-cycle",
	"scale", "push-pull", "latency", "breakdown", "sweep-capture", "churn",
	"ferry",
}

// wallClock experiments print host timings, so only their title lines and
// row labels are pinned: header lines are kept whole, and each later line
// is cut to the width of its label column.
var wallClock = []struct {
	name          string
	header, label int
}{
	{"fig11", 2, 17}, // "%-12s  %3d": series and |B|
	{"broker", 3, 9}, // "%-9d": subscription count
}

func runOutput(t *testing.T, name string, quick bool) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, name, quick, 0, 0, false, "", 0); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return buf.String()
}

func labels(out string, header, width int) string {
	lines := strings.SplitAfter(out, "\n")
	for i := header; i < len(lines); i++ {
		if l := strings.TrimSuffix(lines[i], "\n"); len(l) > width {
			lines[i] = strings.TrimRight(l[:width], " ") + "\n"
		}
	}
	return strings.Join(lines, "")
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "quick", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with go test ./cmd/diffsim -run Quick -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s -quick drifted from %s:\n--- got\n%s--- want\n%s", name, path, got, want)
	}
}

// TestQuickTablesPinned holds every -quick table to the bytes in
// testdata/quick. The experiments are deterministic per seed, so any
// difference is a change in what the simulation does or prints.
func TestQuickTablesPinned(t *testing.T) {
	for _, name := range deterministic {
		checkGolden(t, name, runOutput(t, name, true))
	}
	for _, e := range wallClock {
		checkGolden(t, e.name, labels(runOutput(t, e.name, true), e.header, e.label))
	}
}

const experimentsDoc = "../../EXPERIMENTS.md"

// rewriteDoc returns doc with the body of the fenced block after each
// "<!-- diffsim -experiment NAME -->" marker replaced by block(NAME, body).
func rewriteDoc(doc string, block func(name, body string) string) (string, error) {
	var out strings.Builder
	lines := strings.SplitAfter(doc, "\n")
	for i := 0; i < len(lines); i++ {
		out.WriteString(lines[i])
		var name string
		if _, err := fmt.Sscanf(lines[i], "<!-- diffsim -experiment %s -->", &name); err != nil {
			continue
		}
		if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "```") {
			return "", fmt.Errorf("marker for %s is not followed by a fenced block", name)
		}
		out.WriteString(lines[i+1])
		j := i + 2
		for j < len(lines) && strings.TrimSpace(lines[j]) != "```" {
			j++
		}
		if j == len(lines) {
			return "", fmt.Errorf("block for %s is not closed", name)
		}
		out.WriteString(block(name, strings.Join(lines[i+2:j], "")))
		out.WriteString(lines[j])
		i = j
	}
	return out.String(), nil
}

// TestExperimentsDocUpToDate runs every experiment EXPERIMENTS.md quotes at
// its full, paper-sized configuration and requires the quoted block to be
// its verbatim output. Run with -update to rewrite the blocks.
func TestExperimentsDocUpToDate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiments")
	}
	raw, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	doc, err := rewriteDoc(string(raw), func(name, body string) string {
		blocks++
		got := runOutput(t, name, false)
		if !*update && got != body {
			t.Errorf("EXPERIMENTS.md block for %s is stale (go test ./cmd/diffsim -run Doc -update):\n--- got\n%s--- want\n%s",
				name, got, body)
		}
		return got
	})
	if err != nil {
		t.Fatal(err)
	}
	if blocks == 0 {
		t.Fatal("EXPERIMENTS.md has no diffsim blocks")
	}
	if *update {
		if err := os.WriteFile(experimentsDoc, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
