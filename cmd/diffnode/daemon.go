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
	"diffusion/internal/custody"
	"diffusion/internal/filters"
	"diffusion/internal/message"
	"diffusion/internal/rt"
	"diffusion/internal/telemetry"
	"diffusion/internal/transport"
)

// Daemon is one live diffusion node: a core.Node on a wall-clock rt.Loop,
// a UDP link layer, and an HTTP control plane. All node state is owned by
// the loop; HTTP handlers cross onto it with loop.Call, receptions with
// loop.Post, so the protocol code runs exactly as single-threaded as it
// does in the simulator.
type Daemon struct {
	cfg   Config
	logw  io.Writer
	start time.Time

	loop *rt.Loop
	node *core.Node
	link *transport.UDP
	reg  *telemetry.Registry
	hub  *telemetry.Hub

	// Custody transfer (nil unless cfg.Custody): the bounded queue that
	// vouches for reinforced data across partitions, and its fsync'd
	// journal when cfg.CustodyFile is set.
	cusq     *custody.Queue
	cusStore *custody.Store

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
	warm       bool
	bootKeys   []string
	stateSaves *telemetry.Counter
	lastSaveMS *telemetry.Gauge

	// flight is the always-on ring of recent protocol activity, dumped to
	// the log when a neighbor dies; written on the loop, by the core and
	// the liveness callbacks.
	flight *telemetry.Ring

	// spans is the flight-path span ring (nil unless cfg.TraceSample > 0),
	// shared by the core and the transport and served at GET /spans. Core
	// writes happen on the loop, transport writes on its own goroutines;
	// both rings stamp with the loop's clock.
	spans *telemetry.Ring

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

// startDaemon brings a node up: transport, protocol stack, boot-time
// application state, and the control plane. The caller owns Shutdown.
func startDaemon(cfg Config, logw io.Writer) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, logw: logw, start: time.Now(), loop: rt.NewLoop()}
	d.flight = telemetry.NewRing(telemetry.DefaultFlightSize, d.loop.Now)
	if cfg.TraceSample > 0 {
		d.spans = telemetry.NewRing(telemetry.DefaultSpanSize, d.loop.Now)
	}

	// Resolve the boot-time application state: a readable state file wins
	// over the config lists (warm restart after a crash); anything else is
	// a cold boot from the config.
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
			d.warm = true
			d.bootKeys, bootSubs, bootPubs, bootFilters = st.Keys, st.Subscribe, st.Publish, st.Filters
			fmt.Fprintf(logw, "diffnode %d: warm restart from %s (%d subscriptions, %d publications, saved %v ago)\n",
				cfg.ID, cfg.StateFile, len(bootSubs), len(bootPubs),
				time.Since(time.UnixMilli(st.SavedAtMS)).Round(time.Millisecond))
		}
	}

	// Custody store and queue come up before the transport: the endpoint's
	// Accept callback journals straight into the queue, and an offer must
	// never be acknowledged before the journal exists.
	var cusOpts *transport.CustodyOptions
	if cfg.Custody {
		var restored []custody.Item
		// journal stays a nil interface for memory-only custody: a typed
		// nil *Store in it would pass the queue's != nil guard and crash.
		var journal custody.Journal
		if cfg.CustodyFile != "" {
			store, items, err := custody.OpenStore(cfg.CustodyFile)
			if err != nil {
				return nil, fmt.Errorf("diffnode: custody journal: %w", err)
			}
			d.cusStore, restored, journal = store, items, store
		}
		d.cusq = custody.NewQueue(cfg.CustodyLimit, journal)
		d.cusq.Restore(restored)
		if len(restored) > 0 {
			st := d.cusStore.Stats()
			fmt.Fprintf(logw, "diffnode %d: custody recovered %d items from %s (%d bytes torn tail discarded)\n",
				cfg.ID, len(restored), cfg.CustodyFile, st.TailTruncated)
		}
		cusOpts = &transport.CustodyOptions{
			// Accept runs on the endpoint's reader goroutine; the queue is
			// internally locked and journals (fsync) before reporting held,
			// so the ack the transport sends is backed by disk. AcceptOffer
			// (not Accept) because the offerer releases on our ack: an ID
			// this node held and released earlier must be re-held, or a
			// custody walk revisiting us under changed topology would
			// discharge data nobody holds.
			Accept: func(from uint32, id message.ID, payload []byte) (held, fresh bool) {
				return d.cusq.AcceptOffer(id, payload)
			},
			Release: func(peer uint32, id message.ID) {
				d.cusq.Release(id)
			},
		}
	}

	// The control plane binds before the transport comes up: discovery
	// announces carry the HTTP port so peers can walk the mesh through
	// GET /neighbors, and that port is only known once the listener binds.
	ln, err := net.Listen("tcp", cfg.HTTP)
	if err != nil {
		d.loop.Stop()
		d.closeCustody()
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
			Energy:      cfg.Energy,
			Interval:    cfg.AnnounceInterval,
			DegreeCap:   cfg.DegreeCap,
			OnMember:    d.onMember,
		}
	}

	var live *transport.LivenessConfig
	if cfg.Heartbeat >= 0 {
		live = &transport.LivenessConfig{
			Interval:      cfg.Heartbeat, // 0 takes the transport default
			SuspectAfter:  cfg.SuspectAfter,
			DeadAfter:     cfg.DeadAfter,
			OnStateChange: d.onPeerState,
		}
	}
	var rel *transport.ReliableConfig
	if cfg.Reliable {
		rel = &transport.ReliableConfig{RTO: cfg.ReliableRTO}
	}
	link, err := transport.ListenUDP(transport.UDPConfig{
		ID:        cfg.ID,
		Listen:    cfg.Listen,
		Neighbors: cfg.Neighbors,
		Loss:      cfg.Loss,
		Latency:   cfg.Latency,
		Seed:      cfg.Seed,
		Liveness:  live,
		Reliable:  rel,
		Custody:   cusOpts,
		Discovery: disco,
		Spans:     d.spans,
		Deliver: func(from uint32, payload []byte) {
			d.loop.Post(func() {
				if d.node != nil {
					d.node.Receive(from, payload)
				}
			})
		},
	})
	if err != nil {
		ln.Close()
		d.loop.Stop()
		d.closeCustody()
		return nil, err
	}
	d.link = link

	d.reg = telemetry.NewRegistry(fmt.Sprintf("node%d", cfg.ID))
	d.hub = telemetry.NewHub(d.loop.Now)
	d.hub.Register(d.reg)

	err = d.loop.Call(func() {
		d.node = core.NewNode(core.Config{
			Clock:               d.loop,
			Rand:                rand.New(rand.NewSource(cfg.Seed)),
			Link:                link,
			InterestInterval:    cfg.InterestInterval,
			ExploratoryInterval: cfg.ExploratoryInterval,
			ExploratoryEvery:    cfg.ExploratoryEvery,
			ForwardJitter:       cfg.ForwardJitter,
			TTL:                 cfg.TTL,
			SeenTTL:             cfg.SeenTTL,
			Custody:             d.cusq,
			EnergyAware:         cfg.EnergyAware,
			Flight:              d.flight,
			TraceSample:         cfg.TraceSample,
			Spans:               d.spans,
		})
		d.node.Instrument(d.reg)
		d.link.Stats().Instrument(d.reg)
		// Per-neighbor series, labeled with the peer ID via the registry's
		// "name|peer=N" convention (rendered as a peer label by
		// telemetry.WritePrometheus). Emitted at snapshot time only.
		d.reg.AddCollector(func(emit func(string, float64)) {
			for id, h := range d.link.PeerHealth() {
				emit(fmt.Sprintf("transport.peer_rtt_us|peer=%d", id), float64(h.RTTMicros))
				emit(fmt.Sprintf("transport.peer_state|peer=%d", id), float64(h.State))
				emit(fmt.Sprintf("transport.peer_last_heard_ms|peer=%d", id), float64(h.LastHeard.Milliseconds()))
			}
			for id, n := range d.link.PeerRetransmits() {
				emit(fmt.Sprintf("transport.peer_retransmits|peer=%d", id), float64(n))
			}
		})
		if d.link.DiscoveryEnabled() {
			d.reg.AddCollector(func(emit func(string, float64)) {
				for _, m := range d.link.Members() {
					emit(fmt.Sprintf("discovery.member_state|peer=%d", m.ID), float64(m.MembershipCode))
				}
			})
		}
		if d.cusStore != nil {
			d.reg.AddCollector(func(emit func(string, float64)) {
				st := d.cusStore.Stats()
				emit("custody.store_appends", float64(st.Appends))
				emit("custody.store_bytes_fsynced", float64(st.BytesFsynced))
				emit("custody.store_syncs", float64(st.Syncs))
				emit("custody.store_compactions", float64(st.Compactions))
				emit("custody.store_recovered", float64(st.Recovered))
			})
		}
		d.delivered = d.reg.Counter("ctl.deliveries")
		d.stateSaves = d.reg.Counter("recovery.state_saves")
		d.lastSaveMS = d.reg.Gauge("recovery.last_save_ms")
		warmGauge := d.reg.Gauge("recovery.warm_restart")
		if d.warm {
			warmGauge.Set(1)
		}
	})
	if err != nil {
		link.Close()
		ln.Close()
		d.closeCustody()
		return nil, err
	}

	// Boot-time application state, all on the loop. Key registration goes
	// first so the application vocabulary gets identical key numbers on
	// every node that lists the same names in the same order.
	var bootErr error
	d.loop.Call(func() {
		for _, name := range d.bootKeys {
			attr.RegisterKey(name)
		}
		for _, spec := range bootFilters {
			if err := d.installFilter(spec); err != nil {
				bootErr = err
				return
			}
		}
		for _, s := range bootSubs {
			if _, err := d.subscribeLocked(s); err != nil {
				bootErr = err
				return
			}
		}
		for _, s := range bootPubs {
			if _, err := d.publishLocked(s); err != nil {
				bootErr = err
				return
			}
		}
		d.saveStateLocked()
	})
	if bootErr != nil {
		link.Close()
		ln.Close()
		d.loop.Stop()
		d.closeCustody()
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

	// The address file is written last: a watcher that sees it may rely on
	// every part of the node — including the control plane — being up.
	if cfg.AddrFile != "" {
		if err := chaos.WriteAddrFile(cfg.AddrFile, chaos.AddrFile{
			ID: cfg.ID, UDP: link.LocalAddr().String(), HTTP: ln.Addr().String(),
		}); err != nil {
			d.Shutdown()
			return nil, fmt.Errorf("diffnode: address file: %w", err)
		}
	}

	discoNote := ""
	if disco != nil {
		discoNote = fmt.Sprintf(" discovery on (seeds %d, degree cap %d)",
			len(cfg.Seeds), d.link.DegreeCap())
	}
	fmt.Fprintf(d.logw, "diffnode %d: udp %s http %s neighbors [%s]%s\n",
		cfg.ID, link.LocalAddr(), ln.Addr(), cfg.neighborSummary(), discoNote)
	return d, nil
}

// HTTPAddr returns the control plane's bound address.
func (d *Daemon) HTTPAddr() net.Addr { return d.httpLn.Addr() }

// UDPAddr returns the diffusion socket's bound address.
func (d *Daemon) UDPAddr() *net.UDPAddr { return d.link.LocalAddr() }

// Shutdown is the SIGTERM path: withdraw the application layer (stopping
// interest refreshes and data origination), keep forwarding while
// in-flight traffic drains, then stop the control plane, the socket and
// the loop. Idempotent.
func (d *Daemon) Shutdown() error {
	d.shutdownOnce.Do(func() {
		fmt.Fprintf(d.logw, "diffnode %d: draining (%v)\n", d.cfg.ID, d.cfg.Drain)
		d.loop.Call(func() {
			for _, f := range d.installed {
				f.Remove()
			}
			d.installed = nil
			for _, h := range d.node.ActivePublications() {
				d.node.Unpublish(h)
			}
			for _, h := range d.node.ActiveSubscriptions() {
				d.node.Unsubscribe(h)
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
		d.loop.Call(func() {
			fmt.Fprintf(d.logw, "diffnode %d: flight dump (shutdown drain):\n", d.cfg.ID)
			d.flight.Dump(d.logw, faultKindName)
		})

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.httpSrv.Shutdown(ctx); err != nil {
			d.shutdownErr = err
			d.httpSrv.Close()
		}
		<-d.httpDone
		// A graceful exit tells the mesh: discovered neighbors demote this
		// node now instead of waiting out the failure detector.
		d.link.Leave()
		if err := d.link.Close(); err != nil && d.shutdownErr == nil {
			d.shutdownErr = err
		}
		d.loop.Call(func() { d.node.Close() })
		d.loop.Stop()
		d.closeCustody()
		fmt.Fprintf(d.logw, "diffnode %d: stopped\n", d.cfg.ID)
	})
	return d.shutdownErr
}

// closeCustody closes the custody journal, if any. The queue itself needs
// no teardown; undelivered custodial data is exactly what the journal is
// for.
func (d *Daemon) closeCustody() {
	if d.cusStore != nil {
		d.cusStore.Close()
	}
}

// Fault kinds the daemon records into the flight ring on liveness and
// membership transitions.
const (
	faultPeerSuspect = iota + 1
	faultPeerDead
	faultPeerRecovered
	faultMemberJoined
	faultMemberGone
)

// faultKindName renders daemon fault kinds for flight dumps.
func faultKindName(k uint8) string {
	switch k {
	case faultPeerSuspect:
		return "peer-suspect"
	case faultPeerDead:
		return "peer-dead"
	case faultPeerRecovered:
		return "peer-recovered"
	case faultMemberJoined:
		return "member-joined"
	case faultMemberGone:
		return "member-gone"
	default:
		return fmt.Sprintf("kind=%d", k)
	}
}

// onMember receives membership verdicts from the discovery engine. It
// runs on a transport goroutine, so protocol work is posted onto the
// loop. A joined (or rejoined) peer is primed exactly like a healed
// configured neighbor — NeighborRecovered re-floods interests and
// exploratory data so gradients form across the new edge; a rejoin
// purges state toward the old incarnation first. A departed peer
// (graceful leave, cap eviction, failed handshake) is a NeighborDead:
// gradients through it must not linger. A detector-declared death
// already drove NeighborDead through onPeerState, so MemberDead only
// records the table removal.
func (d *Daemon) onMember(peer uint32, ev transport.MemberEvent) {
	fmt.Fprintf(d.logw, "diffnode %d: member %d %s\n", d.cfg.ID, peer, ev)
	d.loop.Post(func() {
		if d.node == nil {
			return
		}
		kind := uint8(faultMemberGone)
		if ev == transport.MemberJoined || ev == transport.MemberRejoined {
			kind = faultMemberJoined
		}
		d.flight.Record(telemetry.Event{Node: d.cfg.ID, Peer: peer, Verb: telemetry.Fault, Kind: kind})
		switch ev {
		case transport.MemberJoined:
			d.node.NeighborRecovered(peer)
		case transport.MemberRejoined:
			d.node.NeighborDead(peer)
			d.node.NeighborRecovered(peer)
		case transport.MemberLeft, transport.MemberEvicted, transport.MemberDemoted:
			d.node.NeighborDead(peer)
		}
	})
}

// onPeerState receives the failure detector's verdicts. It runs on a
// transport goroutine, so everything protocol-touching is posted onto the
// loop: a dead neighbor purges the core's state toward it (NeighborDead
// re-primes interest and exploratory flooding around the hole), and the
// flight recorder is dumped to the log so the traffic leading up to the
// death is preserved for diagnosis.
func (d *Daemon) onPeerState(peer uint32, s transport.PeerState) {
	fmt.Fprintf(d.logw, "diffnode %d: neighbor %d is %s\n", d.cfg.ID, peer, s)
	d.loop.Post(func() {
		if d.node == nil {
			return
		}
		kind := uint8(faultPeerRecovered)
		switch s {
		case transport.PeerSuspect:
			kind = faultPeerSuspect
		case transport.PeerDead:
			kind = faultPeerDead
		}
		d.flight.Record(telemetry.Event{Node: d.cfg.ID, Peer: peer, Verb: telemetry.Fault, Kind: kind})
		switch s {
		case transport.PeerDead:
			d.node.NeighborDead(peer)
			fmt.Fprintf(d.logw, "diffnode %d: flight dump (neighbor %d died):\n", d.cfg.ID, peer)
			d.flight.Dump(d.logw, faultKindName)
		case transport.PeerAlive:
			// A recovery: re-prime discovery toward the healed peer and
			// replay any custodial data that was waiting out the partition.
			// (The transport has already re-offered its pending custody
			// frames on this transition.)
			d.node.NeighborRecovered(peer)
		}
	})
}

// subscribeLocked parses attrs and subscribes; loop-confined.
func (d *Daemon) subscribeLocked(attrsText string) (core.SubscriptionHandle, error) {
	vec, err := attr.ParseVec(attrsText)
	if err != nil {
		return 0, err
	}
	h := d.node.Subscribe(vec, d.onDelivery)
	fmt.Fprintf(d.logw, "diffnode %d: subscribed #%d %v\n", d.cfg.ID, h, vec)
	return h, nil
}

// publishLocked parses attrs and publishes; loop-confined.
func (d *Daemon) publishLocked(attrsText string) (core.PublicationHandle, error) {
	vec, err := attr.ParseVec(attrsText)
	if err != nil {
		return 0, err
	}
	h := d.node.Publish(vec)
	fmt.Fprintf(d.logw, "diffnode %d: published #%d %v\n", d.cfg.ID, h, vec)
	return h, nil
}

// onDelivery records a locally delivered message; loop-confined.
func (d *Daemon) onDelivery(m *message.Message) {
	d.total++
	d.delivered.Inc()
	d.ring = append(d.ring, delivery{
		Seq:   d.total,
		AtMS:  d.loop.Now().Milliseconds(),
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
		d.installed = append(d.installed, filters.NewTap(d.node, pattern, d.logw))
	case "suppress":
		d.installed = append(d.installed, filters.NewSuppression(d.node, d.loop,
			filters.SuppressionOptions{Pattern: pattern}))
	case "cache":
		d.installed = append(d.installed, filters.NewCache(d.node, d.loop,
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
	if err := d.loop.Call(fn); err != nil {
		httpError(w, http.StatusServiceUnavailable, "daemon is shutting down")
		return false
	}
	return true
}

// handleSubscribe installs a subscription. Body: attribute formals in the
// paper's textual notation.
func (d *Daemon) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var h core.SubscriptionHandle
	var err error
	var rendered string
	if !d.onLoop(w, func() {
		h, err = d.subscribeLocked(string(body))
		if err == nil {
			if v, ok := d.node.SubscriptionAttrs(h); ok {
				rendered = v.Notation()
			}
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

// handlePublish declares a publication. Body: attribute actuals.
func (d *Daemon) handlePublish(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var h core.PublicationHandle
	var err error
	var rendered string
	if !d.onLoop(w, func() {
		h, err = d.publishLocked(string(body))
		if err == nil {
			if v, ok := d.node.PublicationAttrs(h); ok {
				rendered = v.Notation()
			}
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

// handleRef decodes the {"handle": N} body unsubscribe/unpublish take.
func handleRef(w http.ResponseWriter, r *http.Request) (int, bool) {
	body, ok := readBody(w, r)
	if !ok {
		return 0, false
	}
	var req struct {
		Handle int `json:"handle"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "want JSON {\"handle\": N}: %v", err)
		return 0, false
	}
	return req.Handle, true
}

func (d *Daemon) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	h, ok := handleRef(w, r)
	if !ok {
		return
	}
	var err error
	if !d.onLoop(w, func() {
		if err = d.node.Unsubscribe(core.SubscriptionHandle(h)); err == nil {
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

func (d *Daemon) handleUnpublish(w http.ResponseWriter, r *http.Request) {
	h, ok := handleRef(w, r)
	if !ok {
		return
	}
	var err error
	if !d.onLoop(w, func() {
		if err = d.node.Unpublish(core.PublicationHandle(h)); err == nil {
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
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Publication int    `json:"publication"`
		Attrs       string `json:"attrs"`
		Exploratory bool   `json:"exploratory"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "want JSON {\"publication\": N, \"attrs\": \"...\"}: %v", err)
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
			sendErr = d.node.SendExploratory(h, extra)
		} else {
			sendErr = d.node.Send(h, extra)
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
		for _, h := range d.node.ActiveSubscriptions() {
			if v, ok := d.node.SubscriptionAttrs(h); ok {
				subs = append(subs, entry{int(h), v.Notation()})
			}
		}
		for _, h := range d.node.ActivePublications() {
			if v, ok := d.node.PublicationAttrs(h); ok {
				pubs = append(pubs, entry{int(h), v.Notation()})
			}
		}
		entries, seen = d.node.Entries(), d.node.SeenSize()
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
	if !d.onLoop(w, func() { snap = d.hub.Snapshot() }) {
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
	if ph := d.link.PeerHealth(); ph != nil {
		neighbors := make(map[string]neighborHealth, len(ph))
		for id, h := range ph {
			neighbors[strconv.FormatUint(uint64(id), 10)] = neighborHealth{
				State:       h.State.String(),
				LastHeardMS: h.LastHeard.Milliseconds(),
				RTTMicros:   h.RTTMicros,
			}
		}
		isolated = d.link.Isolated()
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
// surface cmd/diffscope's mesh walk rides on — each row's http address
// points at that peer's own /neighbors. Works with discovery off too:
// configured neighbors show up with origin "configured".
func (d *Daemon) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID          uint32  `json:"id"`
		UDP         string  `json:"udp,omitempty"`
		HTTP        string  `json:"http,omitempty"`
		Origin      string  `json:"origin"`
		Member      string  `json:"member"`
		Peered      bool    `json:"peered"`
		Score       uint64  `json:"score,omitempty"`
		Energy      float64 `json:"energy,omitempty"`
		Boot        *uint32 `json:"boot,omitempty"`
		DataRecv    uint64  `json:"data_recv"`
		DataSent    uint64  `json:"data_sent"`
		State       string  `json:"state,omitempty"`
		LastHeardMS int64   `json:"last_heard_ms,omitempty"`
		RTTMicros   int64   `json:"rtt_us,omitempty"`
	}
	members := d.link.Members()
	rows := make([]row, 0, len(members))
	degree := 0
	for _, m := range members {
		if m.MembershipCode == transport.MembershipNeighbor {
			degree++
		}
		rw := row{
			ID: m.ID, UDP: m.Addr, HTTP: m.HTTPAddr,
			Origin: m.Origin, Member: m.Membership, Peered: m.Peered,
			Score: m.Score, Energy: m.Energy,
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
		"boot":      d.link.Boot(),
		"degree":    degree,
		"cap":       d.link.DegreeCap(),
		"discovery": d.link.DiscoveryEnabled(),
		"neighbors": rows,
	})
}

// handleCustody reports the custody layer: queue depth and counters,
// outstanding wire offers, and journal accounting when a custody file is
// configured. 404 when custody is disabled. The queue and store are
// internally locked, so no loop crossing is needed.
func (d *Daemon) handleCustody(w http.ResponseWriter, r *http.Request) {
	if d.cusq == nil {
		httpError(w, http.StatusNotFound, "custody is not enabled")
		return
	}
	c := d.cusq.Counters()
	resp := map[string]any{
		"len":            d.cusq.Len(),
		"limit":          d.cusq.Limit(),
		"pending_offers": d.link.CustodyPending(),
		"accepted":       c.Accepted,
		"released":       c.Released,
		"replayed":       c.Replayed,
		"shed":           c.Shed,
		"restored":       c.Restored,
	}
	if d.cusStore != nil {
		st := d.cusStore.Stats()
		resp["journal"] = map[string]any{
			"appends":        st.Appends,
			"bytes_appended": st.BytesAppended,
			"bytes_fsynced":  st.BytesFsynced,
			"syncs":          st.Syncs,
			"compactions":    st.Compactions,
			"tail_truncated": st.TailTruncated,
			"recovered":      st.Recovered,
			"live":           d.cusStore.Live(),
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
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Loss    *float64  `json:"loss"`
		Blocked *[]uint32 `json:"blocked"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "want JSON {\"loss\": P, \"blocked\": [ID, ...]}: %v", err)
		return
	}
	if req.Loss != nil && (*req.Loss < 0 || *req.Loss > 1) {
		httpError(w, http.StatusBadRequest, "loss %v outside [0,1]", *req.Loss)
		return
	}
	if req.Loss != nil {
		d.link.SetLoss(*req.Loss)
	}
	if req.Blocked != nil {
		d.link.SetBlocked(*req.Blocked)
	}
	blocked := d.link.Blocked()
	if blocked == nil {
		blocked = []uint32{}
	}
	fmt.Fprintf(d.logw, "diffnode %d: chaos loss=%v blocked=%v\n", d.cfg.ID, d.link.Loss(), blocked)
	writeJSON(w, map[string]any{"loss": d.link.Loss(), "blocked": blocked})
}

// handleSpans serves the flight-path span ring as a JSONL trace
// (telemetry.WriteJSONL, so difftrace reads it as saved): the header's run
// info carries the node's identity, boot nonce and the ring clock's
// absolute base, and each record's us is relative to that base.
// cmd/diffscope scrapes this from every node and rebases onto wall time
// to merge cluster-wide causal timelines. 404 when tracing is off.
func (d *Daemon) handleSpans(w http.ResponseWriter, r *http.Request) {
	if d.spans == nil {
		httpError(w, http.StatusNotFound, "flight-path tracing is not enabled (set trace_sample > 0)")
		return
	}
	events := d.spans.Records()
	recs := make([]telemetry.Record, len(events))
	for i, e := range events {
		recs[i] = e.Record()
	}
	w.Header().Set("Content-Type", "application/jsonl")
	telemetry.WriteJSONL(w, telemetry.RunInfo{
		Seed: d.cfg.Seed, Topology: "diffnode", Nodes: 1,
		Node: d.cfg.ID, Boot: d.link.Boot(), StartUnixUS: d.loop.Start().UnixMicro(),
	}, recs)
}
