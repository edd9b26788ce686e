package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Config is one diffnode's deployment description: identity, sockets, the
// static neighbor table, protocol timings, and the application state to
// install at boot, so a cluster is a directory of small JSON files plus one
// binary. options declares each field's flag, file key and meaning; zero
// values take the defaults named there (see validate and core.Config).
type Config struct {
	ID               uint32
	Listen, HTTP     string
	Neighbors        map[uint32]string
	Seeds            []string
	Discover         bool
	DegreeCap        int
	AnnounceInterval time.Duration
	Advertise        string
	AddrFile         string

	Keys               []string
	Subscribe, Publish []string
	Filters            []string

	Seed                                  int64
	InterestInterval, ExploratoryInterval time.Duration
	ExploratoryEvery                      int
	ForwardJitter                         time.Duration
	TTL                                   uint8
	Loss                                  float64

	Heartbeat, SuspectAfter, DeadAfter time.Duration
	Reliable                           bool
	ReliableRTO                        time.Duration
	Custody                            bool
	CustodyFile                        string
	CustodyLimit                       int
	SeenTTL                            time.Duration

	TraceSample float64
	Pprof       bool
	StateFile   string
	Drain       time.Duration
}

// option is one diffnode setting, declared once: its flag (empty for a
// file-only setting), its config-file key, its help sentence and its field.
// The table drives the flag set, the config-file decoder and the README's
// option table.
type option struct {
	flag, key, help string
	ptr             any
}

// list is a []string field. Its flag splits the value on sep (empty keeps
// it whole) and appends to the file's list, or replaces it.
type list struct {
	p       *[]string
	sep     string
	replace bool
}

func (l list) set(s string) error {
	if l.replace {
		*l.p = nil
	}
	*l.p = append(*l.p, splitList(s, l.sep)...)
	return nil
}

// options lists every setting of c.
func options(c *Config) []option {
	return []option{
		{"id", "id", "node ID (nonzero)", &c.ID},
		{"listen", "listen", "UDP listen address for diffusion traffic", &c.Listen},
		{"http", "http", "HTTP control-plane listen address", &c.HTTP},
		// Optional under discovery, where static entries are pinned: counted
		// against the degree cap, never evicted.
		{"neighbors", "neighbors", "static neighbor table: ID=HOST:PORT,... (fully overrides the config file's table; empty clears it)", &c.Neighbors},
		{"seed", "seeds", "comma-separated UDP addresses of running mesh members to join through (enables discovery)", list{&c.Seeds, ",", true}},
		{"discover", "discover", "enable neighbor discovery without seeds (the first node of a fresh mesh)", &c.Discover},
		// Slots go to the highest cluster-head scores, and an isolated node
		// is always rescued (see transport.DiscoveryConfig).
		{"degree-cap", "degree_cap", "max neighbors, configured + discovered (0: 8)", &c.DegreeCap},
		{"announce-interval", "announce_interval", "discovery announce period (0: 1s)", &c.AnnounceInterval},
		{"advertise", "advertise", "UDP address announced to peers (default: the bound address)", &c.Advertise},
		// Written atomically: how an orchestrator learns the real ports.
		{"addr-file", "addr_file", "write {id,udp,http} JSON here once the sockets bind (for orchestrators using :0)", &c.AddrFile},
		// Attribute keys travel as 32-bit numbers (the paper "assume[s]
		// out-of-band coordination of their values"): the same names in the
		// same order on every node is that coordination. The paper's
		// well-known vocabulary (type, interval, ...) needs no entry.
		{"keys", "keys", "comma-separated application attribute keys to pre-register, in order", list{&c.Keys, ",", false}},
		// Attribute vectors in the paper's textual notation; their handles
		// go to the log and GET /state.
		{"subscribe", "subscribe", "attribute formals to subscribe at boot", list{&c.Subscribe, "", false}},
		{"publish", "publish", "attribute actuals to publish at boot", list{&c.Publish, "", false}},
		{"filters", "filters", "semicolon-separated filters: tap, suppress, cache (optionally name:<attrs>)", list{&c.Filters, ";", false}},
		{"jitter-seed", "seed", "jitter seed (default: node ID)", &c.Seed},
		{"interest-interval", "interest_interval", "interest refresh period (0: paper default)", &c.InterestInterval},
		{"exploratory-interval", "exploratory_interval", "exploratory data period (0: paper default)", &c.ExploratoryInterval},
		{"", "exploratory_every", "make every Nth data message exploratory instead of timing them (0: use the period)", &c.ExploratoryEvery},
		{"forward-jitter", "forward_jitter", "broadcast forwarding jitter (0: paper default)", &c.ForwardJitter},
		{"", "ttl", "hop limit of interest and exploratory flooding (0: paper default)", &c.TTL},
		// Synthetic impairment of the UDP sends, for parity testing against
		// the simulated radio.
		{"loss", "loss", "injected send loss probability [0,1)", &c.Loss},
		{"heartbeat", "heartbeat", "neighbor heartbeat period (0: 1s default, negative: disable failure detection)", &c.Heartbeat},
		{"suspect-after", "suspect_after", "silence marking a neighbor suspect (0: 3x heartbeat)", &c.SuspectAfter},
		{"dead-after", "dead_after", "silence marking a neighbor dead (0: 8x heartbeat)", &c.DeadAfter},
		// Per-neighbor, with overload shedding (see transport.ReliableConfig);
		// broadcasts stay best-effort, as on a radio.
		{"reliable", "reliable", "acknowledged unicast with retransmission", &c.Reliable},
		{"reliable-rto", "reliable_rto", "initial retransmission timeout (0: 200ms default)", &c.ReliableRTO},
		// Reinforced data with no path waits in a bounded queue; the next
		// custodian acks only after a durable accept. Without a journal,
		// custody survives partitions but not crashes.
		{"custody", "custody", "disruption-tolerant custody transfer for reinforced data", &c.Custody},
		{"custody-file", "custody_file", "fsync'd custody journal (implies -custody; custody survives SIGKILL)", &c.CustodyFile},
		{"custody-limit", "custody_limit", "custody queue bound (implies -custody; 0: 1024)", &c.CustodyLimit},
		// Replayed custody must not look fresh because its ID aged out of
		// the sink's cache.
		{"seen-ttl", "seen_ttl", "duplicate-suppression horizon (0: 2m; raise past the longest expected partition)", &c.SeenTTL},
		// A sampled origination carries a 16-bit flow ID on the wire, and
		// every layer it touches records spans; cmd/difftrace merges them.
		{"trace-sample", "trace_sample", "flight-path tracing sample probability [0,1]; spans served at GET /spans", &c.TraceSample},
		// Off by default: the control plane is often reachable beyond
		// localhost, and profiles leak heap contents.
		{"pprof", "pprof", "mount net/http/pprof endpoints under /debug/pprof/ on the control plane", &c.Pprof},
		// Keys, subscriptions, publications and filters, written after every
		// mutation, so a crashed node warm-restarts into the same role.
		{"state-file", "state_file", "persist application state here and warm-restart from it", &c.StateFile},
		{"drain", "drain", "shutdown drain window (default 500ms)", &c.Drain},
	}
}

// flagSet binds every option with a flag to its field in c, plus -config
// to path. A field's current value is its flag's default.
func flagSet(c *Config, path *string, h flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], h)
	fs.StringVar(path, "config", "", "JSON config file (flags override)")
	for _, o := range options(c) {
		if o.flag == "" {
			continue
		}
		switch p := o.ptr.(type) {
		case *string:
			fs.StringVar(p, o.flag, *p, o.help)
		case *bool:
			fs.BoolVar(p, o.flag, *p, o.help)
		case *int:
			fs.IntVar(p, o.flag, *p, o.help)
		case *int64:
			fs.Int64Var(p, o.flag, *p, o.help)
		case *float64:
			fs.Float64Var(p, o.flag, *p, o.help)
		case *time.Duration:
			fs.DurationVar(p, o.flag, *p, o.help)
		case *uint32:
			fs.Func(o.flag, o.help, func(s string) error {
				n, err := strconv.ParseUint(s, 10, 32)
				*p = uint32(n)
				return err
			})
		case *map[uint32]string:
			fs.Func(o.flag, o.help, func(s string) (err error) {
				*p, err = parseNeighbors(s)
				return err
			})
		case list:
			fs.Func(o.flag, o.help, p.set)
		}
	}
	return fs
}

// loadConfig reads a JSON config file. Durations are Go strings ("500ms")
// and neighbor IDs string keys, the natural forms in a hand-written file;
// a key that names no option is an error.
func loadConfig(path string) (c Config, err error) {
	b, err := os.ReadFile(path)
	if err == nil {
		err = c.decode(b)
	}
	if err != nil {
		err = fmt.Errorf("config %s: %w", path, err)
	}
	return c, err
}

func (c *Config) decode(b []byte) error {
	var file map[string]json.RawMessage
	if err := json.Unmarshal(b, &file); err != nil {
		return err
	}
	for _, o := range options(c) {
		v, ok := file[o.key]
		if !ok {
			continue
		}
		delete(file, o.key)
		if err := decodeValue(v, o.ptr); err != nil {
			return fmt.Errorf("%s: %w", o.key, err)
		}
	}
	var unknown []string
	for k := range file {
		unknown = append(unknown, strconv.Quote(k))
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("unknown key %s", strings.Join(unknown, ", "))
	}
	return nil
}

func decodeValue(v json.RawMessage, ptr any) error {
	switch p := ptr.(type) {
	case *time.Duration:
		var s string
		err := json.Unmarshal(v, &s)
		if err == nil && s != "" {
			*p, err = time.ParseDuration(s)
		}
		return err
	case *map[uint32]string:
		var m map[string]string
		if err := json.Unmarshal(v, &m); err != nil {
			return err
		}
		*p = map[uint32]string{}
		for k, addr := range m {
			id, err := strconv.ParseUint(k, 10, 32)
			if err != nil {
				return fmt.Errorf("neighbor key %q: %w", k, err)
			}
			(*p)[uint32(id)] = addr
		}
	case list:
		return json.Unmarshal(v, p.p)
	default:
		return json.Unmarshal(v, ptr)
	}
	return nil
}

// parseNeighbors parses the -neighbors flag: "2=127.0.0.1:7002,3=...".
func parseNeighbors(s string) (map[uint32]string, error) {
	out := map[uint32]string{}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		id, addr, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("neighbor %q: want ID=HOST:PORT", field)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(id), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("neighbor %q: %w", field, err)
		}
		out[uint32(n)] = strings.TrimSpace(addr)
	}
	return out, nil
}

// splitList splits a list flag on sep, trimming blanks; an empty sep keeps
// the value whole. The -filters flag uses ';' because filter patterns are
// attribute vectors, whose clauses are comma-separated; -keys uses ','.
func splitList(s, sep string) []string {
	parts := []string{s}
	if sep != "" {
		parts = strings.Split(s, sep)
	}
	var out []string
	for _, f := range parts {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// validate fills defaults and rejects unusable configs.
func (c *Config) validate() error {
	if c.ID == 0 {
		return fmt.Errorf("diffnode: config requires a nonzero node id")
	}
	if c.Listen == "" {
		return fmt.Errorf("diffnode: config requires a UDP listen address")
	}
	if c.HTTP == "" {
		return fmt.Errorf("diffnode: config requires an HTTP listen address")
	}
	if c.Loss < 0 || c.Loss >= 1 {
		return fmt.Errorf("diffnode: loss %v outside [0,1)", c.Loss)
	}
	if c.Seed == 0 {
		c.Seed = int64(c.ID)
	}
	if c.CustodyLimit < 0 {
		return fmt.Errorf("diffnode: custody limit %d is negative", c.CustodyLimit)
	}
	if c.TraceSample < 0 || c.TraceSample > 1 {
		return fmt.Errorf("diffnode: trace sample %v outside [0,1]", c.TraceSample)
	}
	if c.CustodyFile != "" || c.CustodyLimit > 0 {
		c.Custody = true
	}
	if c.Drain <= 0 {
		c.Drain = 500 * time.Millisecond
	}
	if c.DegreeCap < 0 {
		return fmt.Errorf("diffnode: degree cap %d is negative", c.DegreeCap)
	}
	if c.discoveryEnabled() && c.Heartbeat < 0 {
		return fmt.Errorf("diffnode: discovery requires the failure detector (heartbeat >= 0)")
	}
	return nil
}

// discoveryEnabled reports whether the membership subsystem runs: any
// seed enables it, as does the explicit flag (the seed node itself has
// no seeds — it just listens).
func (c *Config) discoveryEnabled() bool {
	return len(c.Seeds) > 0 || c.Discover
}

// neighborSummary renders the neighbor table for the startup log line.
func (c *Config) neighborSummary() string {
	ids := make([]uint32, 0, len(c.Neighbors))
	for id := range c.Neighbors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d=%s", id, c.Neighbors[id])
	}
	return strings.Join(parts, ",")
}
