package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite README.md's option table, testdata/usage.txt and testdata/metrics_series.txt")

// everyKey sets each of the config file's keys to a non-zero value.
const everyKey = `{
	"id": 7, "listen": "127.0.0.1:7007", "http": "127.0.0.1:8007",
	"neighbors": {"2": "127.0.0.1:7002", "3": "127.0.0.1:7003"},
	"seeds": ["127.0.0.1:7001"], "discover": true, "degree_cap": 4,
	"announce_interval": "2s", "advertise": "10.0.0.7:7007",
	"addr_file": "node.addr", "keys": ["room", "floor"],
	"subscribe": ["type EQ x"], "publish": ["type IS x"],
	"filters": ["tap", "suppress:type EQ x"], "seed": 11,
	"interest_interval": "3s", "exploratory_interval": "4s",
	"exploratory_every": 5, "forward_jitter": "6ms", "ttl": 9,
	"loss": 0.1, "heartbeat": "8ms",
	"suspect_after": "9ms", "dead_after": "10ms", "reliable": true,
	"reliable_rto": "11ms", "custody": true, "custody_file": "node.custody",
	"custody_limit": 12, "seen_ttl": "13m",
	"trace_sample": 0.25, "pprof": true, "state_file": "node.state",
	"drain": "14ms"
}`

// TestConfigFileEveryKey pins the config file's whole surface: every key
// decodes into its field, durations from Go strings and neighbor IDs from
// string keys.
func TestConfigFileEveryKey(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.json")
	if err := os.WriteFile(path, []byte(everyKey), 0o644); err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal([]byte(everyKey), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 34 {
		t.Fatalf("fixture sets %d keys, want 34", len(keys))
	}
	got, err := loadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		ID: 7, Listen: "127.0.0.1:7007", HTTP: "127.0.0.1:8007",
		Neighbors: map[uint32]string{2: "127.0.0.1:7002", 3: "127.0.0.1:7003"},
		Seeds:     []string{"127.0.0.1:7001"}, Discover: true, DegreeCap: 4,
		AnnounceInterval: 2 * time.Second, Advertise: "10.0.0.7:7007",
		AddrFile: "node.addr", Keys: []string{"room", "floor"},
		Subscribe: []string{"type EQ x"}, Publish: []string{"type IS x"},
		Filters: []string{"tap", "suppress:type EQ x"}, Seed: 11,
		InterestInterval: 3 * time.Second, ExploratoryInterval: 4 * time.Second,
		ExploratoryEvery: 5, ForwardJitter: 6 * time.Millisecond, TTL: 9,
		Loss: 0.1, Heartbeat: 8 * time.Millisecond,
		SuspectAfter: 9 * time.Millisecond, DeadAfter: 10 * time.Millisecond, Reliable: true,
		ReliableRTO: 11 * time.Millisecond, Custody: true, CustodyFile: "node.custody",
		CustodyLimit: 12, SeenTTL: 13 * time.Minute,
		TraceSample: 0.25, Pprof: true, StateFile: "node.state",
		Drain: 14 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, want)
	}
	v := reflect.ValueOf(want)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("Config.%s is not covered by the fixture", v.Type().Field(i).Name)
		}
	}
}

// TestUsagePinned holds diffnode -h to testdata/usage.txt: the same flags,
// help sentences and defaults. -update rewrites the file.
func TestUsagePinned(t *testing.T) {
	var got bytes.Buffer
	fs := flagSet(&Config{}, new(string), flag.ContinueOnError)
	fs.SetOutput(&got)
	fs.PrintDefaults()
	if *update {
		if err := os.WriteFile(filepath.Join("testdata", "usage.txt"), got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "usage.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("diffnode -h drifted from testdata/usage.txt:\n--- got\n%s--- want\n%s", &got, want)
	}
}

func writeConfig(t *testing.T, conf string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node.json")
	if err := os.WriteFile(path, []byte(conf), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagBeatsFile: a flag given on the command line overrides the file
// even when it is zero or false. -keys, -subscribe, -publish and -filters
// add to the file's lists; -seed and -neighbors replace them, and an empty
// -neighbors clears the table.
func TestFlagBeatsFile(t *testing.T) {
	path := writeConfig(t, `{"id": 1, "reliable": true, "heartbeat": "2s",
		"loss": 0.1, "pprof": true, "keys": ["room"],
		"subscribe": ["type EQ a"], "publish": ["type IS a"], "filters": ["tap"],
		"seeds": ["127.0.0.1:7001"], "neighbors": {"2": "127.0.0.1:7002"}}`)
	cfg, err := buildConfig([]string{"-config", path,
		"-reliable=false", "-heartbeat", "0", "-loss", "0", "-pprof=false",
		"-keys", "floor,wing", "-subscribe", "type EQ b", "-publish", "type IS b",
		"-filters", "cache;suppress", "-seed", "127.0.0.1:7009",
		"-neighbors", "9=127.0.0.1:7009"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Reliable || cfg.Heartbeat != 0 || cfg.Loss != 0 || cfg.Pprof {
		t.Errorf("reliable %v, heartbeat %v, loss %v, pprof %v: want all zero",
			cfg.Reliable, cfg.Heartbeat, cfg.Loss, cfg.Pprof)
	}
	for _, c := range []struct {
		name      string
		got, want []string
	}{
		{"keys", cfg.Keys, []string{"room", "floor", "wing"}},
		{"subscribe", cfg.Subscribe, []string{"type EQ a", "type EQ b"}},
		{"publish", cfg.Publish, []string{"type IS a", "type IS b"}},
		{"filters", cfg.Filters, []string{"tap", "cache", "suppress"}},
		{"seeds", cfg.Seeds, []string{"127.0.0.1:7009"}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s = %q, want %q", c.name, c.got, c.want)
		}
	}
	if want := map[uint32]string{9: "127.0.0.1:7009"}; !reflect.DeepEqual(cfg.Neighbors, want) {
		t.Errorf("neighbors = %v, want %v", cfg.Neighbors, want)
	}
	cfg, err = buildConfig([]string{"-config", path, "-neighbors", ""})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Neighbors) != 0 {
		t.Errorf("-neighbors \"\" left %v", cfg.Neighbors)
	}
}

// TestConfigUnknownKey: a key that names no option is an error naming it,
// and a neighbor ID that is not a number is still rejected. energy_aware
// and latency named options that are gone.
func TestConfigUnknownKey(t *testing.T) {
	for conf, want := range map[string]string{
		`{"id": 1, "degree-cap": 4}`:                   `unknown key "degree-cap"`,
		`{"id": 1, "neighbors": {"x": "127.0.0.1:1"}}`: `neighbor key "x"`,
		`{"id": 1, "energy": 0.5}`:                     `unknown key "energy"`,
		`{"id": 1, "energy_aware": true}`:              `unknown key "energy_aware"`,
		`{"id": 1, "latency": "7ms"}`:                  `unknown key "latency"`,
	} {
		_, err := buildConfig([]string{"-config", writeConfig(t, conf)})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one containing %s", conf, err, want)
		}
	}
}

const (
	readme     = "../../README.md"
	tableBegin = "<!-- diffnode options: go test ./cmd/diffnode -run OptionsDoc -update -->\n"
	tableEnd   = "<!-- end diffnode options -->\n"
)

// optionsTable renders the option table as README.md quotes it.
func optionsTable() string {
	cell := strings.NewReplacer("|", `\|`, "<", "&lt;").Replace
	fs := flagSet(&Config{}, new(string), flag.ContinueOnError)
	var b strings.Builder
	b.WriteString("| flag | JSON key | meaning |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| `-config` | | %s |\n", cell(fs.Lookup("config").Usage))
	for _, o := range options(&Config{}) {
		name := "file only"
		if o.flag != "" {
			name = "`-" + o.flag + "`"
		}
		fmt.Fprintf(&b, "| %s | `%s` | %s |\n", name, o.key, cell(o.help))
	}
	return b.String()
}

// TestOptionsDocUpToDate holds README.md's option table to options. Run
// with -update to rewrite it.
func TestOptionsDocUpToDate(t *testing.T) {
	raw, err := os.ReadFile(readme)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(raw), tableBegin)
	body, tail, ok2 := strings.Cut(rest, tableEnd)
	if !ok || !ok2 {
		t.Fatalf("README.md lacks the %q ... %q markers", tableBegin, tableEnd)
	}
	got := optionsTable()
	if *update {
		if err := os.WriteFile(readme, []byte(head+tableBegin+got+tableEnd+tail), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if body != got {
		t.Errorf("README.md's option table is stale (go test ./cmd/diffnode -run OptionsDoc -update):\n--- got\n%s--- want\n%s", got, body)
	}
}
