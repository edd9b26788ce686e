package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// discoveryConfig is a daemon config tuned for fast in-process membership
// tests: tight announce and failure-detector periods, short drain.
func discoveryConfig(id uint32) Config {
	return Config{
		ID:               id,
		Drain:            10 * time.Millisecond,
		InterestInterval: 100 * time.Millisecond,
		ForwardJitter:    time.Millisecond,
		AnnounceInterval: 40 * time.Millisecond,
		Heartbeat:        25 * time.Millisecond,
		SuspectAfter:     100 * time.Millisecond,
		DeadAfter:        300 * time.Millisecond,
	}
}

// neighborRows fetches GET /neighbors and returns the rows keyed by peer
// ID, plus the envelope.
func neighborRows(t *testing.T, d *Daemon) (map[uint32]map[string]any, map[string]any) {
	t.Helper()
	code, resp := ctl(t, d, "GET", "/neighbors", "")
	if code != 200 {
		t.Fatalf("GET /neighbors: %d %v", code, resp)
	}
	rows := map[uint32]map[string]any{}
	if list, ok := resp["neighbors"].([]any); ok {
		for _, e := range list {
			row := e.(map[string]any)
			rows[uint32(row["id"].(float64))] = row
		}
	}
	return rows, resp
}

// waitMember polls d's /neighbors until peer shows the wanted membership
// state (or any state, when want is "").
func waitMember(t *testing.T, d *Daemon, peer uint32, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rows, _ := neighborRows(t, d)
		if row, ok := rows[peer]; ok && (want == "" || row["member"] == want) {
			return row
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d: peer %d never reached membership %q (have %v)",
				d.cfg.ID, peer, want, rows[peer])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonDiscoveryJoin boots a listening seed and a joiner pointed at
// it with -seed semantics, and asserts the full membership lifecycle over
// GET /neighbors: mutual promotion with peered handshakes, discovered
// origin, cross-advertised control-plane addresses, and a graceful leave
// on shutdown.
func TestDaemonDiscoveryJoin(t *testing.T) {
	seedCfg := discoveryConfig(1)
	seedCfg.Discover = true
	seed := startTestDaemon(t, seedCfg)

	joinCfg := discoveryConfig(2)
	joinCfg.Seeds = []string{seed.UDPAddr().String()}
	join := startTestDaemon(t, joinCfg)

	// Both sides promote and complete the two-way handshake.
	seedRow := waitMember(t, seed, 2, "neighbor")
	joinRow := waitMember(t, join, 1, "neighbor")
	for name, row := range map[string]map[string]any{"seed": seedRow, "join": joinRow} {
		if row["origin"] != "discovered" {
			t.Errorf("%s row origin = %v, want discovered", name, row["origin"])
		}
	}
	waitFor := func(cond func() bool, msg string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal(msg)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitFor(func() bool {
		r := waitMember(t, seed, 2, "neighbor")
		return r["peered"] == true
	}, "seed never saw the joiner reciprocate")

	// Announces carry the HTTP port: each side can derive the other's
	// control plane — the contract difftrace -walk depends on.
	if got, want := waitMember(t, seed, 2, "neighbor")["http"], join.HTTPAddr().String(); got != want {
		t.Errorf("seed's http for joiner = %v, want %v", got, want)
	}
	if got, want := waitMember(t, join, 1, "neighbor")["http"], seed.HTTPAddr().String(); got != want {
		t.Errorf("joiner's http for seed = %v, want %v", got, want)
	}
	if _, resp := neighborRows(t, seed); resp["discovery"] != true {
		t.Errorf("discovery = %v, want true", resp["discovery"])
	}

	// Graceful shutdown sends leave: the seed demotes the joiner without
	// waiting out the failure detector.
	join.Shutdown()
	waitFor(func() bool {
		rows, _ := neighborRows(t, seed)
		row, ok := rows[2]
		return !ok || row["member"] == "left"
	}, "seed never processed the joiner's leave")
}

// TestNeighborsFlagPrecedence pins the -neighbors flag contract: the flag
// is the entire table (full override of the config file, never a merge),
// an explicitly empty flag clears the file's table, and a node with
// neither a table nor discovery is rejected at the CLI.
func TestNeighborsFlagPrecedence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "node.json")
	conf := `{"id": 1, "neighbors": {"2": "127.0.0.1:7002", "3": "127.0.0.1:7003"}}`
	if err := os.WriteFile(path, []byte(conf), 0o644); err != nil {
		t.Fatal(err)
	}

	// Flag overrides replace the file's table wholesale.
	cfg, err := buildConfig([]string{"-config", path, "-neighbors", "9=127.0.0.1:7009"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Neighbors) != 1 || cfg.Neighbors[9] != "127.0.0.1:7009" {
		t.Fatalf("override table = %v, want only 9=127.0.0.1:7009", cfg.Neighbors)
	}

	// An empty -neighbors clears the static table; with a seed given the
	// node becomes discovery-only rather than an error.
	cfg, err = buildConfig([]string{"-config", path, "-neighbors", "", "-seed", "127.0.0.1:7001"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Neighbors) != 0 {
		t.Fatalf("cleared table = %v, want empty", cfg.Neighbors)
	}
	if !cfg.discoveryEnabled() {
		t.Fatal("seeds given but discovery not enabled")
	}

	// Clearing the table with no discovery fallback is a config error.
	if _, err := buildConfig([]string{"-config", path, "-neighbors", ""}); err == nil {
		t.Fatal("no neighbors and no discovery: want error")
	}

	// Without the flag the file's table stands untouched.
	cfg, err = buildConfig([]string{"-config", path})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Neighbors) != 2 {
		t.Fatalf("file table = %v, want 2 entries", cfg.Neighbors)
	}

	// -discover alone satisfies the check (pure listener seed node).
	if _, err := buildConfig([]string{"-discover"}); err != nil {
		t.Fatalf("-discover alone: %v", err)
	}
}
