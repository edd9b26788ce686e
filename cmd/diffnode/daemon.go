package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/chaos"
	"diffusion/internal/core"
	"diffusion/internal/filters"
	"diffusion/internal/message"
	"diffusion/internal/rt"
	"diffusion/internal/telemetry"
	"diffusion/internal/transport"
)

// Daemon is one live diffusion node: an rt.Stack — a core.Node on a
// wall-clock loop over a UDP link layer — and an HTTP control plane. All
// node state is owned by the loop; HTTP handlers cross onto it with
// Loop.Call, so the protocol code runs exactly as single-threaded as it
// does in the simulator.
type Daemon struct {
	*rt.Stack
	cfg   Config
	logw  io.Writer
	start time.Time

	httpLn   net.Listener
	httpSrv  *http.Server
	httpDone chan struct{}

	// Loop-confined application state.
	installed   []removable
	filterSpecs []string
	delivered   *telemetry.Counter
	ring        []delivery
	total       int

	// Crash recovery (see state.go). bootKeys is the effective key list
	// this boot registered — from the state file on a warm restart, from
	// the config otherwise — persisted as-is so key numbering survives
	// restarts.
	bootKeys   []string
	stateSaves *telemetry.Counter
	lastSaveMS *telemetry.Gauge

	shutdownOnce sync.Once
	shutdownErr  error
}

// removable is the uninstall surface the built-in filters share.
type removable interface{ Remove() }

// delivery is one locally delivered message, kept in a bounded ring for
// GET /deliveries.
type delivery struct {
	Seq   int    `json:"seq"` // global delivery index, from 1
	AtMS  int64  `json:"at_ms"`
	Class string `json:"class"`
	Attrs string `json:"attrs"`
}

// deliveryRingCap bounds the delivery ring; total keeps counting beyond
// it.
const deliveryRingCap = 1024

// startDaemon brings a node up: the control plane's listener, the
// protocol stack, boot-time application state, then the control plane
// itself. The caller owns Shutdown.
func startDaemon(cfg Config, logw io.Writer) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, logw: logw, start: time.Now()}

	// Resolve the boot-time application state: a readable state file wins
	// over the config lists (warm restart after a crash); anything else is
	// a cold boot from the config.
	warm := false
	d.bootKeys = cfg.Keys
	bootSubs, bootPubs, bootFilters := cfg.Subscribe, cfg.Publish, cfg.Filters
	if cfg.StateFile != "" {
		st, found, err := loadState(cfg.StateFile)
		switch {
		case err != nil:
			fmt.Fprintf(logw, "diffnode %d: %v (cold boot)\n", cfg.ID, err)
		case found && st.ID != cfg.ID:
			fmt.Fprintf(logw, "diffnode %d: state file %s belongs to node %d, ignoring\n",
				cfg.ID, cfg.StateFile, st.ID)
		case found:
			warm = true
			d.bootKeys, bootSubs, bootPubs, bootFilters = st.Keys, st.Subscribe, st.Publish, st.Filters
			fmt.Fprintf(logw, "diffnode %d: warm restart from %s (%d subscriptions, %d publications, saved %v ago)\n",
				cfg.ID, cfg.StateFile, len(bootSubs), len(bootPubs),
				time.Since(time.UnixMilli(st.SavedAtMS)).Round(time.Millisecond))
		}
	}

	// The control plane binds before the transport comes up: discovery
	// announces carry the HTTP port so peers can walk the mesh through
	// GET /neighbors, and that port is only known once the listener binds.
	ln, err := net.Listen("tcp", cfg.HTTP)
	if err != nil {
		return nil, fmt.Errorf("diffnode: control plane: %w", err)
	}
	d.httpLn = ln

	var disco *transport.DiscoveryConfig
	if cfg.discoveryEnabled() {
		// The vocabulary digest covers the full ordered key registry —
		// well-known keys plus this boot's application keys — so register
		// the latter now (idempotent; the boot sequence re-registers them
		// on the loop). Peers whose digest differs would silently
		// mis-parse every named interest; discovery quarantines them.
		for _, name := range d.bootKeys {
			attr.RegisterKey(name)
		}
		var names []string
		for _, k := range attr.RegisteredKeys() {
			names = append(names, attr.KeyName(k))
		}
		disco = &transport.DiscoveryConfig{
			Seeds:       cfg.Seeds,
			Advertise:   cfg.Advertise,
			HTTPPort:    uint16(ln.Addr().(*net.TCPAddr).Port),
			VocabDigest: transport.VocabDigest(names),
			Interval:    cfg.AnnounceInterval,
			DegreeCap:   cfg.DegreeCap,
		}
	}

	var live *transport.LivenessConfig
	if cfg.Heartbeat >= 0 {
		live = &transport.LivenessConfig{
			Interval:     cfg.Heartbeat, // 0 takes the transport default
			SuspectAfter: cfg.SuspectAfter,
			DeadAfter:    cfg.DeadAfter,
		}
	}
	var rel *transport.ReliableConfig
	if cfg.Reliable {
		rel = &transport.ReliableConfig{RTO: cfg.ReliableRTO}
	}
	d.Stack, err = rt.NewStack(rt.StackConfig{
		Link: transport.UDPConfig{
			ID:        cfg.ID,
			Listen:    cfg.Listen,
			Neighbors: cfg.Neighbors,
			Loss:      cfg.Loss,
			Seed:      cfg.Seed,
			Liveness:  live,
			Reliable:  rel,
			Discovery: disco,
		},
		Node: core.Config{
			Rand:                rand.New(rand.NewSource(cfg.Seed)),
			InterestInterval:    cfg.InterestInterval,
			ExploratoryInterval: cfg.ExploratoryInterval,
			ExploratoryEvery:    cfg.ExploratoryEvery,
			ForwardJitter:       cfg.ForwardJitter,
			TTL:                 cfg.TTL,
			SeenTTL:             cfg.SeenTTL,
			TraceSample:         cfg.TraceSample,
		},
		Custody:      cfg.Custody,
		CustodyLimit: cfg.CustodyLimit,
		CustodyFile:  cfg.CustodyFile,
		Log:          logw,
		Prefix:       fmt.Sprintf("diffnode %d: ", cfg.ID),
	})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("diffnode: %w", err)
	}

	// Boot-time application state, all on the loop. Key registration goes
	// first so the application vocabulary gets identical key numbers on
	// every node that lists the same names in the same order.
	var bootErr error
	d.Loop.Call(func() {
		d.delivered = d.Reg.Counter("ctl.deliveries")
		d.stateSaves = d.Reg.Counter("recovery.state_saves")
		d.lastSaveMS = d.Reg.Gauge("recovery.last_save_ms")
		warmGauge := d.Reg.Gauge("recovery.warm_restart")
		if warm {
			warmGauge.Set(1)
		}
		for _, name := range d.bootKeys {
			attr.RegisterKey(name)
		}
		for _, spec := range bootFilters {
			if bootErr = d.installFilter(spec); bootErr != nil {
				return
			}
		}
		for _, s := range bootSubs {
			if _, bootErr = d.subscribeLocked(s); bootErr != nil {
				return
			}
		}
		for _, s := range bootPubs {
			if _, bootErr = d.publishLocked(s); bootErr != nil {
				return
			}
		}
		d.saveStateLocked()
	})

	// The address file is written once every part of the node is up: a
	// watcher that sees it may rely on all of it, and the control plane's
	// listener is bound, so a request sent at once is answered as soon as
	// Serve starts below.
	if bootErr == nil && cfg.AddrFile != "" {
		if err := chaos.WriteAddrFile(cfg.AddrFile, chaos.AddrFile{
			ID: cfg.ID, UDP: d.Link.LocalAddr().String(), HTTP: ln.Addr().String(),
		}); err != nil {
			bootErr = fmt.Errorf("diffnode: address file: %w", err)
		}
	}
	if bootErr != nil {
		// A node that never served has nothing to withdraw or drain.
		d.Stack.Close()
		ln.Close()
		return nil, bootErr
	}

	d.httpSrv = &http.Server{Handler: d.routes()}
	d.httpDone = make(chan struct{})
	go func() {
		defer close(d.httpDone)
		if err := d.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(d.logw, "diffnode %d: http: %v\n", cfg.ID, err)
		}
	}()

	discoNote := ""
	if disco != nil {
		discoNote = fmt.Sprintf(" discovery on (seeds %d, degree cap %d)",
			len(cfg.Seeds), d.Link.DegreeCap())
	}
	fmt.Fprintf(d.logw, "diffnode %d: udp %s http %s neighbors [%s]%s\n",
		cfg.ID, d.Link.LocalAddr(), ln.Addr(), cfg.neighborSummary(), discoNote)
	return d, nil
}

// HTTPAddr returns the control plane's bound address.
func (d *Daemon) HTTPAddr() net.Addr { return d.httpLn.Addr() }

// UDPAddr returns the diffusion socket's bound address.
func (d *Daemon) UDPAddr() *net.UDPAddr { return d.Link.LocalAddr() }

// Shutdown is the SIGTERM path: withdraw the application layer (stopping
// interest refreshes and data origination), keep forwarding while
// in-flight traffic drains, then stop the control plane and the stack.
// Idempotent.
func (d *Daemon) Shutdown() error {
	d.shutdownOnce.Do(func() {
		fmt.Fprintf(d.logw, "diffnode %d: draining (%v)\n", d.cfg.ID, d.cfg.Drain)
		d.Loop.Call(func() {
			for _, f := range d.installed {
				f.Remove()
			}
			d.installed = nil
			for _, h := range d.Node.ActivePublications() {
				d.Node.Unpublish(h)
			}
			for _, h := range d.Node.ActiveSubscriptions() {
				d.Node.Unsubscribe(h)
			}
		})
		// Gradients toward this node now expire on their own (the paper's
		// soft-state teardown); meanwhile keep relaying neighbors'
		// traffic for the drain window.
		time.Sleep(d.cfg.Drain)

		// Dump the flight recorder before tearing anything down: the last
		// seconds of protocol activity are the evidence for whatever made
		// the operator stop this node, and after the loop stops the ring
		// is unreachable.
		d.Loop.Call(func() { d.DumpFlight("shutdown drain") })

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.httpSrv.Shutdown(ctx); err != nil {
			d.shutdownErr = err
			d.httpSrv.Close()
		}
		<-d.httpDone
		if err := d.Stack.Close(); err != nil && d.shutdownErr == nil {
			d.shutdownErr = err
		}
		fmt.Fprintf(d.logw, "diffnode %d: stopped\n", d.cfg.ID)
	})
	return d.shutdownErr
}

// subscribeLocked parses attrs and subscribes; loop-confined.
func (d *Daemon) subscribeLocked(attrsText string) (core.SubscriptionHandle, error) {
	vec, err := attr.ParseVec(attrsText)
	if err != nil {
		return 0, err
	}
	h := d.Node.Subscribe(vec, d.onDelivery)
	fmt.Fprintf(d.logw, "diffnode %d: subscribed #%d %v\n", d.cfg.ID, h, vec)
	return h, nil
}

// publishLocked parses attrs and publishes; loop-confined.
func (d *Daemon) publishLocked(attrsText string) (core.PublicationHandle, error) {
	vec, err := attr.ParseVec(attrsText)
	if err != nil {
		return 0, err
	}
	h := d.Node.Publish(vec)
	fmt.Fprintf(d.logw, "diffnode %d: published #%d %v\n", d.cfg.ID, h, vec)
	return h, nil
}

// onDelivery records a locally delivered message; loop-confined.
func (d *Daemon) onDelivery(m *message.Message) {
	d.total++
	d.delivered.Inc()
	d.ring = append(d.ring, delivery{
		Seq:   d.total,
		AtMS:  d.Loop.Now().Milliseconds(),
		Class: m.Class.String(),
		Attrs: m.Attrs.Notation(),
	})
	if len(d.ring) > deliveryRingCap {
		d.ring = d.ring[len(d.ring)-deliveryRingCap:]
	}
}

// installFilter interprets one config filter spec ("name" or
// "name:<attrs>"); loop-confined.
func (d *Daemon) installFilter(spec string) error {
	name, pat, _ := strings.Cut(spec, ":")
	var pattern attr.Vec
	if pat != "" {
		v, err := attr.ParseVec(pat)
		if err != nil {
			return fmt.Errorf("filter %q: %w", spec, err)
		}
		pattern = v
	}
	switch name {
	case "tap":
		d.installed = append(d.installed, filters.NewTap(d.Node, pattern, d.logw))
	case "suppress":
		d.installed = append(d.installed, filters.NewSuppression(d.Node, d.Loop,
			filters.SuppressionOptions{Pattern: pattern}))
	case "cache":
		d.installed = append(d.installed, filters.NewCache(d.Node, d.Loop,
			filters.CacheOptions{Pattern: pattern}))
	default:
		return fmt.Errorf("filter %q: unknown name (want tap, suppress or cache)", spec)
	}
	d.filterSpecs = append(d.filterSpecs, spec)
	fmt.Fprintf(d.logw, "diffnode %d: installed filter %s\n", d.cfg.ID, spec)
	return nil
}

// --- HTTP control plane ---

// routes builds the control-plane mux.
func (d *Daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /subscribe", d.handleSubscribe)
	mux.HandleFunc("POST /unsubscribe", d.handleUnsubscribe)
	mux.HandleFunc("POST /publish", d.handlePublish)
	mux.HandleFunc("POST /unpublish", d.handleUnpublish)
	mux.HandleFunc("POST /send", d.handleSend)
	mux.HandleFunc("GET /deliveries", d.handleDeliveries)
	mux.HandleFunc("GET /state", d.handleState)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /neighbors", d.handleNeighbors)
	mux.HandleFunc("GET /custody", d.handleCustody)
	mux.HandleFunc("POST /chaos", d.handleChaos)
	mux.HandleFunc("GET /spans", d.handleSpans)
	if d.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// maxBodyBytes bounds control-plane request bodies; attribute vectors are
// small.
const maxBodyBytes = 64 << 10

// readBody reads a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "body too large or unreadable")
		return nil, false
	}
	return b, true
}

// httpError writes a JSON error envelope.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// onLoop runs fn on the node's loop, translating a stopped loop into 503.
func (d *Daemon) onLoop(w http.ResponseWriter, fn func()) bool {
	if err := d.Loop.Call(fn); err != nil {
		httpError(w, http.StatusServiceUnavailable, "daemon is shutting down")
		return false
	}
	return true
}

// readJSON reads a bounded request body and decodes it into v, answering
// 400 with the shape wanted when it does not decode.
func readJSON(w http.ResponseWriter, r *http.Request, v any, want string) bool {
	body, ok := readBody(w, r)
	if !ok {
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		httpError(w, http.StatusBadRequest, "want JSON %s: %v", want, err)
		return false
	}
	return true
}

// handleSubscribe installs a subscription. Body: attribute formals in the
// paper's textual notation.
func (d *Daemon) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	d.declare(w, r, func(text string) (int, string, error) {
		h, err := d.subscribeLocked(text)
		v, _ := d.Node.SubscriptionAttrs(h)
		return int(h), v.Notation(), err
	})
}

// handlePublish declares a publication. Body: attribute actuals.
func (d *Daemon) handlePublish(w http.ResponseWriter, r *http.Request) {
	d.declare(w, r, func(text string) (int, string, error) {
		h, err := d.publishLocked(text)
		v, _ := d.Node.PublicationAttrs(h)
		return int(h), v.Notation(), err
	})
}

// declare runs one subscribe or publish on the loop, saves the state file
// when it took, and answers with the handle and the attributes as stored.
func (d *Daemon) declare(w http.ResponseWriter, r *http.Request, fn func(string) (int, string, error)) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var h int
	var rendered string
	var err error
	if !d.onLoop(w, func() {
		if h, rendered, err = fn(string(body)); err == nil {
			d.saveStateLocked()
		}
	}) {
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"handle": h, "attrs": rendered})
}

func (d *Daemon) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	d.withdraw(w, r, func(h int) error { return d.Node.Unsubscribe(core.SubscriptionHandle(h)) })
}

func (d *Daemon) handleUnpublish(w http.ResponseWriter, r *http.Request) {
	d.withdraw(w, r, func(h int) error { return d.Node.Unpublish(core.PublicationHandle(h)) })
}

// withdraw decodes the {"handle": N} body unsubscribe and unpublish take,
// runs drop on the loop and saves the state file when it took.
func (d *Daemon) withdraw(w http.ResponseWriter, r *http.Request, drop func(h int) error) {
	var req struct {
		Handle int `json:"handle"`
	}
	if !readJSON(w, r, &req, `{"handle": N}`) {
		return
	}
	var err error
	if !d.onLoop(w, func() {
		if err = drop(req.Handle); err == nil {
			d.saveStateLocked()
		}
	}) {
		return
	}
	if err != nil {
		httpError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"ok": true})
}

// handleSend emits one data message. Body: JSON {"publication": N,
// "attrs": "<actuals>", "exploratory": bool}.
func (d *Daemon) handleSend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Publication int    `json:"publication"`
		Attrs       string `json:"attrs"`
		Exploratory bool   `json:"exploratory"`
	}
	if !readJSON(w, r, &req, `{"publication": N, "attrs": "..."}`) {
		return
	}
	extra, err := attr.ParseVec(req.Attrs)
	if err != nil {
		httpError(w, http.StatusBadRequest, "attrs: %v", err)
		return
	}
	var sendErr error
	if !d.onLoop(w, func() {
		h := core.PublicationHandle(req.Publication)
		if req.Exploratory {
			sendErr = d.Node.SendExploratory(h, extra)
		} else {
			sendErr = d.Node.Send(h, extra)
		}
	}) {
		return
	}
	switch {
	case errors.Is(sendErr, core.ErrUnknownHandle):
		httpError(w, http.StatusNotFound, "%v", sendErr)
	case sendErr != nil:
		httpError(w, http.StatusConflict, "%v", sendErr)
	default:
		writeJSON(w, map[string]any{"ok": true})
	}
}

// handleDeliveries reports local delivery history: the running total and
// the most recent ring entries (newest last). ?since=N trims entries with
// Seq <= N.
func (d *Daemon) handleDeliveries(w http.ResponseWriter, r *http.Request) {
	since := 0
	if s := r.URL.Query().Get("since"); s != "" {
		fmt.Sscanf(s, "%d", &since)
	}
	var total int
	var recent []delivery
	if !d.onLoop(w, func() {
		total = d.total
		for _, dv := range d.ring {
			if dv.Seq > since {
				recent = append(recent, dv)
			}
		}
	}) {
		return
	}
	writeJSON(w, map[string]any{"total": total, "recent": recent})
}

// handleState reports the application layer: live handles with attrs and
// table sizes.
func (d *Daemon) handleState(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Handle int    `json:"handle"`
		Attrs  string `json:"attrs"`
	}
	var subs, pubs []entry
	var entries, seen int
	if !d.onLoop(w, func() {
		for _, h := range d.Node.ActiveSubscriptions() {
			if v, ok := d.Node.SubscriptionAttrs(h); ok {
				subs = append(subs, entry{int(h), v.Notation()})
			}
		}
		for _, h := range d.Node.ActivePublications() {
			if v, ok := d.Node.PublicationAttrs(h); ok {
				pubs = append(pubs, entry{int(h), v.Notation()})
			}
		}
		entries, seen = d.Node.Entries(), d.Node.SeenSize()
	}) {
		return
	}
	writeJSON(w, map[string]any{
		"id":               d.cfg.ID,
		"subscriptions":    subs,
		"publications":     pubs,
		"interest_entries": entries,
		"seen_cache":       seen,
	})
}

// handleMetrics serves the telemetry registry in Prometheus text format.
// The snapshot is taken on the loop (collectors read live node state);
// rendering happens on the handler goroutine.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap telemetry.Snapshot
	if !d.onLoop(w, func() { snap = d.Hub.Snapshot() }) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, snap, "diffusion")
}

// handleHealthz reports liveness: the process itself plus every
// neighbor's failure-detector state (alive/suspect/dead and how long ago
// it was last heard). When every neighbor is dead the node is partitioned
// from the network and the endpoint answers 503, so an external
// supervisor can distinguish "process up, network gone" from healthy.
// A node with no neighbors at all — single-node deployment, or a
// discovery node that has not joined yet — is never "isolated": that is
// a legitimate steady state, and a 503 there would have a supervisor
// restart-looping a healthy process. (The detector reports all-dead only
// when it watches at least one peer, so the empty table is safe.)
func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type neighborHealth struct {
		State       string `json:"state"`
		LastHeardMS int64  `json:"last_heard_ms"`
		RTTMicros   int64  `json:"rtt_us,omitempty"`
	}
	resp := map[string]any{
		"id":         d.cfg.ID,
		"uptime_ms":  time.Since(d.start).Milliseconds(),
		"goroutines": runtime.NumGoroutine(),
	}
	isolated := false
	if ph := d.Link.PeerHealth(); ph != nil {
		neighbors := make(map[string]neighborHealth, len(ph))
		for id, h := range ph {
			neighbors[strconv.FormatUint(uint64(id), 10)] = neighborHealth{
				State:       h.State.String(),
				LastHeardMS: h.LastHeard.Milliseconds(),
				RTTMicros:   h.RTTMicros,
			}
		}
		isolated = d.Link.Isolated()
		resp["neighbors"] = neighbors
		resp["isolated"] = isolated
	}
	w.Header().Set("Content-Type", "application/json")
	if isolated {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(resp)
}

// handleNeighbors reports the node's membership view: every peer in the
// live neighbor table plus every discovery record still being tracked
// (candidates, quarantined peers, recent departures). This is the
// surface difftrace -walk rides on — each row's http address points at
// that peer's own /neighbors. Works with discovery off too: configured
// neighbors show up with origin "configured".
func (d *Daemon) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID          uint32  `json:"id"`
		UDP         string  `json:"udp,omitempty"`
		HTTP        string  `json:"http,omitempty"`
		Origin      string  `json:"origin"`
		Member      string  `json:"member"`
		Peered      bool    `json:"peered"`
		Score       uint64  `json:"score,omitempty"`
		Boot        *uint32 `json:"boot,omitempty"`
		DataRecv    uint64  `json:"data_recv"`
		DataSent    uint64  `json:"data_sent"`
		State       string  `json:"state,omitempty"`
		LastHeardMS int64   `json:"last_heard_ms,omitempty"`
		RTTMicros   int64   `json:"rtt_us,omitempty"`
	}
	members := d.Link.Members()
	rows := make([]row, 0, len(members))
	degree := 0
	for _, m := range members {
		if m.MembershipCode == transport.MembershipNeighbor {
			degree++
		}
		rw := row{
			ID: m.ID, UDP: m.Addr, HTTP: m.HTTPAddr,
			Origin: m.Origin, Member: m.Membership, Peered: m.Peered, Score: m.Score,
			DataRecv: m.DataRecv, DataSent: m.DataSent,
		}
		if m.HasBoot {
			// The peer's incarnation, pointer-typed so "no full announce
			// yet" is absent rather than a real-looking nonce of 0 — chaos
			// harnesses diff this across restarts to prove a rejoin.
			boot := m.Boot
			rw.Boot = &boot
		}
		if m.HasHealth {
			rw.State = m.Health.State.String()
			rw.LastHeardMS = m.Health.LastHeard.Milliseconds()
			rw.RTTMicros = m.Health.RTTMicros
		}
		rows = append(rows, rw)
	}
	writeJSON(w, map[string]any{
		"id":        d.cfg.ID,
		"boot":      d.Link.Boot(),
		"degree":    degree,
		"cap":       d.Link.DegreeCap(),
		"discovery": d.Link.DiscoveryEnabled(),
		"neighbors": rows,
	})
}

// handleCustody reports the custody layer: queue depth and counters,
// outstanding wire offers, and journal accounting when a custody file is
// configured. 404 when custody is disabled. The queue and store are
// internally locked, so no loop crossing is needed.
func (d *Daemon) handleCustody(w http.ResponseWriter, r *http.Request) {
	if d.Custody == nil {
		httpError(w, http.StatusNotFound, "custody is not enabled")
		return
	}
	c := d.Custody.Counters()
	resp := map[string]any{
		"len":            d.Custody.Len(),
		"limit":          d.Custody.Limit(),
		"pending_offers": d.Link.CustodyPending(),
		"accepted":       c.Accepted,
		"released":       c.Released,
		"replayed":       c.Replayed,
		"shed":           c.Shed,
		"restored":       c.Restored,
	}
	if d.Store != nil {
		st := d.Store.Stats()
		resp["journal"] = map[string]any{
			"appends":        st.Appends,
			"bytes_appended": st.BytesAppended,
			"bytes_fsynced":  st.BytesFsynced,
			"syncs":          st.Syncs,
			"compactions":    st.Compactions,
			"tail_truncated": st.TailTruncated,
			"recovered":      st.Recovered,
			"live":           d.Store.Live(),
		}
	}
	writeJSON(w, resp)
}

// handleChaos adjusts live transport impairment, the process-level chaos
// harness's lever for partitions and loss ramps. Body: JSON with optional
// "loss" (egress drop probability in [0,1]) and "blocked" (neighbor IDs
// whose traffic is dropped in both directions); omitted fields are left
// alone. The response reports the impairment now in force.
func (d *Daemon) handleChaos(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Loss    *float64  `json:"loss"`
		Blocked *[]uint32 `json:"blocked"`
	}
	if !readJSON(w, r, &req, `{"loss": P, "blocked": [ID, ...]}`) {
		return
	}
	if req.Loss != nil && (*req.Loss < 0 || *req.Loss > 1) {
		httpError(w, http.StatusBadRequest, "loss %v outside [0,1]", *req.Loss)
		return
	}
	if req.Loss != nil {
		d.Link.SetLoss(*req.Loss)
	}
	if req.Blocked != nil {
		d.Link.SetBlocked(*req.Blocked)
	}
	blocked := d.Link.Blocked()
	if blocked == nil {
		blocked = []uint32{}
	}
	fmt.Fprintf(d.logw, "diffnode %d: chaos loss=%v blocked=%v\n", d.cfg.ID, d.Link.Loss(), blocked)
	writeJSON(w, map[string]any{"loss": d.Link.Loss(), "blocked": blocked})
}

// handleSpans serves the flight-path span ring as a JSONL trace
// (rt.Stack.WriteSpans, so difftrace reads it as saved). Given several
// nodes, difftrace rebases each onto wall time and merges them. 404 when
// tracing is off.
func (d *Daemon) handleSpans(w http.ResponseWriter, r *http.Request) {
	if d.Spans == nil {
		httpError(w, http.StatusNotFound, "flight-path tracing is not enabled (set trace_sample > 0)")
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	d.WriteSpans(w, d.cfg.Seed)
}
