package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// meshServer serves a canned GET /neighbors view. The neighbor HTTP
// addresses are filled in lazily (via the addr map) because httptest
// assigns ports only at start.
func meshServer(t *testing.T, id uint32, discovery bool, peers func() []map[string]any) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/neighbors" {
			http.NotFound(w, r)
			return
		}
		rows := peers()
		degree := 0
		for _, row := range rows {
			if row["member"] == "neighbor" {
				degree++
			}
		}
		json.NewEncoder(w).Encode(map[string]any{
			"id": id, "boot": 1, "degree": degree, "cap": 8,
			"discovery": discovery, "neighbors": rows,
		})
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestWalkMesh walks a 3-node mesh from a single entry point: the entry
// knows only node 2, node 2 knows node 3, and the walk must find all
// three, skip a dead address gracefully, and dedupe the back-links.
func TestWalkMesh(t *testing.T) {
	addr := map[uint32]string{}
	row := func(id uint32, member string) map[string]any {
		return map[string]any{"id": id, "http": addr[id], "member": member,
			"peered": true, "origin": "discovered"}
	}
	s1 := meshServer(t, 1, true, func() []map[string]any {
		return []map[string]any{row(2, "neighbor")}
	})
	s2 := meshServer(t, 2, true, func() []map[string]any {
		// A back-link to 1, a live link to 3, and a dead peer whose
		// address no longer answers.
		return []map[string]any{row(1, "neighbor"), row(3, "neighbor"),
			{"id": 9, "http": "127.0.0.1:1", "member": "dead", "origin": "discovered"}}
	})
	s3 := meshServer(t, 3, true, func() []map[string]any {
		return []map[string]any{row(2, "neighbor")}
	})
	for id, s := range map[uint32]*httptest.Server{1: s1, 2: s2, 3: s3} {
		addr[id] = strings.TrimPrefix(s.URL, "http://")
	}

	var out bytes.Buffer
	nodes, err := walkMesh(&out, http.DefaultClient, []string{addr[1]})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Fatalf("walked %d nodes, want 3: %+v", len(nodes), nodes)
	}
	for i, want := range []uint32{1, 2, 3} {
		if nodes[i].ID != want {
			t.Errorf("nodes[%d].ID = %d, want %d", i, nodes[i].ID, want)
		}
	}
	if !strings.Contains(out.String(), "skipping 127.0.0.1:1") {
		t.Errorf("dead peer not reported: %q", out.String())
	}

	// A bad entry point is fatal — the operator typo'd the address.
	if _, err := walkMesh(&out, http.DefaultClient, []string{"127.0.0.1:1"}); err == nil {
		t.Fatal("bad entry point: want error")
	}
}

// TestRunWalk drives run() end to end with -walk: info prints the census
// for every discovered node, and nodes without tracing are skipped rather
// than failing the scrape.
func TestRunWalk(t *testing.T) {
	addr := map[uint32]string{}
	row := func(id uint32) map[string]any {
		return map[string]any{"id": id, "http": addr[id], "member": "neighbor",
			"peered": true, "origin": "discovered"}
	}
	s1 := meshServer(t, 1, true, func() []map[string]any { return []map[string]any{row(2)} })
	s2 := meshServer(t, 2, true, func() []map[string]any { return []map[string]any{row(1)} })
	addr[1] = strings.TrimPrefix(s1.URL, "http://")
	addr[2] = strings.TrimPrefix(s2.URL, "http://")

	var out bytes.Buffer
	for _, cmd := range []string{"info", "paths"} {
		if err := run(&out, []string{"-walk", cmd, "http://" + addr[1]}); err != nil {
			t.Fatal(err)
		}
	}
	got := out.String()
	for _, want := range []string{"walked 2 nodes", "node 1 (", "node 2 (",
		"degree 1/8", "no flight-path spans scraped"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestWalkBoundsAttempts: a /neighbors view listing thousands of forged
// addresses that never answer costs at most walkLimit fetches in all.
func TestWalkBoundsAttempts(t *testing.T) {
	var requests atomic.Int64
	var self string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if r.URL.Path != "/neighbors" {
			http.NotFound(w, r)
			return
		}
		rows := make([]map[string]any, 2*walkLimit)
		for i := range rows {
			rows[i] = map[string]any{"id": i + 2, "http": fmt.Sprintf("%s/forged/%d", self, i), "member": "candidate"}
		}
		json.NewEncoder(w).Encode(map[string]any{"id": 1, "neighbors": rows})
	}))
	t.Cleanup(srv.Close)
	self = strings.TrimPrefix(srv.URL, "http://")

	var out bytes.Buffer
	if _, err := walkMesh(&out, http.DefaultClient, []string{srv.URL}); err != nil {
		t.Fatal(err)
	}
	if n := requests.Load(); n > walkLimit {
		t.Errorf("walk made %d requests, limit %d", n, walkLimit)
	}
	if !strings.Contains(out.String(), "(limit)") {
		t.Errorf("walk did not report the limit:\n%s", out.String()[max(0, out.Len()-500):])
	}
}
