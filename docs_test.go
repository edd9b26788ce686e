package diffusion_test

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The documents name packages and files by path; these tests hold the
// names to the tree, so a deleted or renamed package cannot linger in
// prose.

var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "examples/README.md", ".github/workflows/ci.yml"}

// repoPath matches a path-like token; only those rooted at internal/,
// cmd/ or examples/ are checked.
var repoPath = regexp.MustCompile(`[A-Za-z0-9_./-]+`)

// TestDocPathsExist fails when a document names an internal/…, cmd/… or
// examples/… path that does not exist. A pkg.Ident reference such as
// internal/core.Node names its package.
func TestDocPathsExist(t *testing.T) {
	for _, doc := range docs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, tok := range repoPath.FindAllString(line, -1) {
				p := strings.TrimPrefix(tok, "./")
				if !strings.HasPrefix(p, "internal/") && !strings.HasPrefix(p, "cmd/") && !strings.HasPrefix(p, "examples/") {
					continue
				}
				p = strings.TrimRight(p, "./")
				if !strings.Contains(p, "/") || exists(p) {
					continue
				}
				// pkg.Ident: the package is everything before the last
				// segment's first dot.
				dir, last := p[:strings.LastIndex(p, "/")+1], p[strings.LastIndex(p, "/")+1:]
				if dot := strings.Index(last, "."); dot > 0 && exists(dir+last[:dot]) {
					continue
				}
				t.Errorf("%s:%d names %s, which does not exist", doc, i+1, tok)
			}
		}
	}
}

func exists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// TestDesignPackageTable holds DESIGN.md §3's inventory to the tree: one
// "| `path` |" row per package under internal/, cmd/ and examples/, and
// no row for a package that does not exist.
func TestDesignPackageTable(t *testing.T) {
	out, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var want []string
	for _, pkg := range strings.Fields(string(out)) {
		p := strings.TrimPrefix(pkg, "diffusion/")
		if strings.HasPrefix(p, "internal/") || strings.HasPrefix(p, "cmd/") || strings.HasPrefix(p, "examples/") {
			want = append(want, p)
		}
	}
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	start := strings.Index(s, "\n## 3.")
	end := strings.Index(s, "\n## 4.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §3 before §4")
	}
	rows := map[string]int{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(s[start:end], -1) {
		rows[m[1]]++
		if !slices.Contains(want, m[1]) {
			t.Errorf("DESIGN.md §3 has a row for %s, which is no package", m[1])
		}
	}
	for _, p := range want {
		if rows[p] != 1 {
			t.Errorf("DESIGN.md §3 has %d rows for package %s, want 1", rows[p], p)
		}
	}
}

// TestChangesEntriesCapped holds each CHANGES.md entry from number 41 on
// to 1 KiB, not counting its MENDED: lines: full measurements belong in
// the commit message, which git keeps. Entry n is the line that starts
// "PR n:" and the lines under it, up to a blank line or the next entry.
func TestChangesEntriesCapped(t *testing.T) {
	b, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	head := regexp.MustCompile(`^PR (\d+):`)
	num, size := 0, 0
	check := func() {
		if num >= 41 && size > 1024 {
			t.Errorf("CHANGES.md entry %d is %d bytes without its MENDED: lines, cap 1024", num, size)
		}
	}
	for _, line := range strings.Split(string(b), "\n") {
		if m := head.FindStringSubmatch(line); m != nil {
			check()
			num, _ = strconv.Atoi(m[1])
			size = 0
		} else if line == "" {
			check()
			num, size = 0, 0
		}
		if !strings.HasPrefix(line, "MENDED:") {
			size += len(line) + 1
		}
	}
	check()
}

// TestDocMetricsListed fails when README.md, DESIGN.md or EXPERIMENTS.md
// names a core., transport., discovery., match. or custody. metric that a
// live node does not serve: metric a.b is the series diffusion_a_b, and
// cmd/diffnode/testdata/metrics_series.txt lists every series. A Go file
// such as custody.go is no metric.
func TestDocMetricsListed(t *testing.T) {
	b, err := os.ReadFile("cmd/diffnode/testdata/metrics_series.txt")
	if err != nil {
		t.Fatal(err)
	}
	served := map[string]bool{}
	for _, line := range strings.Fields(string(b)) {
		name, _, _ := strings.Cut(line, "{")
		served[name] = true
	}
	metric := regexp.MustCompile(`\b(?:core|transport|discovery|match|custody)\.[a-z][a-z0-9_]*\b`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, name := range metric.FindAllString(line, -1) {
				if strings.HasSuffix(name, ".go") {
					continue
				}
				if !served["diffusion_"+strings.ReplaceAll(name, ".", "_")] {
					t.Errorf("%s:%d names metric %s, which metrics_series.txt does not list", doc, i+1, name)
				}
			}
		}
	}
}
