package diffusion

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"diffusion/internal/core"
	"diffusion/internal/custody"
	"diffusion/internal/energy"
	"diffusion/internal/mac"
	"diffusion/internal/microdiff"
	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
	"diffusion/internal/topo"
)

// Topology places nodes; build one with TestbedTopology, GridTopology,
// LineTopology, RandomTopology, or topo.New for custom layouts.
type Topology = topo.Topology

// Topology constructors, re-exported.
var (
	// TestbedTopology is the paper's Figure 7 testbed: 14 PC/104 nodes on
	// two floors of ISI.
	TestbedTopology = topo.Testbed
	// GridTopology returns a cols×rows grid.
	GridTopology = topo.Grid
	// LineTopology returns n nodes in a line.
	LineTopology = topo.Line
	// RandomTopology places n nodes uniformly at random.
	RandomTopology = topo.Random
)

// Testbed roles from the paper's evaluation.
const (
	TestbedSink  = topo.TestbedSink
	TestbedUser  = topo.TestbedUser
	TestbedAudio = topo.TestbedAudio
)

// TestbedSources returns the Figure 8 sources / Figure 9 light sensors.
func TestbedSources() []uint32 { return topo.TestbedSources() }

// RadioParams configures the wireless channel; MACParams the link layer.
type (
	RadioParams = radio.Params
	MACParams   = mac.Params
)

// Substrate parameter presets.
var (
	// DefaultRadio is the testbed-calibrated lossy channel.
	DefaultRadio = radio.DefaultParams
	// PerfectRadio is loss-free (still rate-limited and collision-prone).
	PerfectRadio = radio.PerfectParams
	// DefaultMAC is the primitive testbed CSMA MAC.
	DefaultMAC = mac.DefaultParams
)

// Handles and callback types of the NR API, re-exported from the core.
type (
	// SubscriptionHandle identifies an active subscription.
	SubscriptionHandle = core.SubscriptionHandle
	// PublicationHandle identifies an active publication.
	PublicationHandle = core.PublicationHandle
	// FilterHandle identifies an installed filter.
	FilterHandle = core.FilterHandle
	// DataCallback receives locally delivered messages.
	DataCallback = core.DataCallback
	// FilterCallback receives messages matching a filter.
	FilterCallback = core.FilterCallback
)

// EnergyRatios is the section 6.1 radio energy model.
type EnergyRatios = energy.Ratios

// PaperEnergyRatios returns the paper's energy model parameters.
func PaperEnergyRatios() EnergyRatios { return energy.PaperRatios() }

// NetworkConfig configures a simulated diffusion network.
type NetworkConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Topology places the nodes (required).
	Topology *Topology
	// Radio and MAC default to the testbed presets when zero.
	Radio *RadioParams
	MAC   *MACParams
	// InterestInterval, GradientLifetime, ExploratoryInterval,
	// ExploratoryEvery, TTL and ForwardJitter configure the diffusion
	// protocol; zero values take the paper's testbed defaults (60 s
	// interests, exploratory data every 60 s). A positive
	// ExploratoryEvery switches to a count-based exploratory cadence.
	InterestInterval    time.Duration
	GradientLifetime    time.Duration
	ExploratoryInterval time.Duration
	ExploratoryEvery    int
	TTL                 uint8
	ForwardJitter       time.Duration
	// DisableNegativeReinforcement turns off duplicate-triggered path
	// teardown (ablation).
	DisableNegativeReinforcement bool
	// Custody gives every node a bounded custody queue (disruption
	// tolerance): reinforced-class data with no forward path is parked
	// and replayed when connectivity returns, instead of dropped. See
	// core.Config.Custody.
	Custody bool
	// CustodyLimit bounds each node's custody queue (0: 1024).
	CustodyLimit int
	// SeenTTL overrides the duplicate-suppression horizon (0: 2m). Mobile
	// and partitioned scenarios must keep it longer than the longest
	// disconnection, so replayed custody is still deduplicated.
	SeenTTL time.Duration
	// TraceSampling, in (0,1], enables causal flight-path tracing: each
	// locally originated message is tagged with a 16-bit flow ID with this
	// probability, and every layer touching a sampled message (core, MAC,
	// custody) records a span into the node's span ring (see Spans and
	// Trace.Records). Zero disables tracing; runs are then bit-identical
	// to pre-trace builds — the sampling draw consumes no randomness.
	TraceSampling float64
	// MoteNodes lists topology IDs to instantiate as micro-diffusion
	// motes (second tier) instead of full diffusion nodes. Access them
	// with Mote(id); bridge the tiers with NewGateway.
	MoteNodes []uint32
}

// Network is a simulated sensor network: one diffusion node per topology
// node over a shared radio channel, driven by a deterministic virtual
// clock.
type Network struct {
	cfg     NetworkConfig
	eng     *sim.Engine
	rng     *rand.Rand // global stream (fault injection), derived from the seed
	channel *radio.Channel
	// parts holds node ids[i]'s parts at i, in topology order, one slab;
	// index maps a topology ID to its position there.
	ids   []uint32
	parts []part
	index map[uint32]int
	// faultHooks observe every injected fault (see fault.go).
	faultHooks []func(FaultEvent)
	// Telemetry wiring (see telemetry.go): the nodes' registries plus one
	// for the shared channel, aggregated by the hub.
	hub        *telemetry.Hub
	flightSink io.Writer
}

// part is what the network holds for one topology node: a full node or a
// mote, its scheduling context and its telemetry.
type part struct {
	port sim.Port
	reg  *telemetry.Registry
	node Node // its core is nil for a mote
	mote *Mote
	// flight is a full node's always-on flight recorder, spans its
	// flight-path span ring when TraceSampling is enabled (see trace.go and
	// cmd/difftrace paths).
	flight, spans *telemetry.Ring
	down          bool // crashed (see fault.go)
}

// part returns node id's parts, or nil when id is not in the topology.
func (net *Network) part(id uint32) *part {
	if i, ok := net.index[id]; ok {
		return &net.parts[i]
	}
	return nil
}

// must returns node id's parts when has (if set) holds of them, and panics
// naming what is missing otherwise: a configuration error.
func (net *Network) must(id uint32, what string, has func(*part) bool) *part {
	if p := net.part(id); p != nil && (has == nil || has(p)) {
		return p
	}
	panic(fmt.Sprintf("diffusion: no %s %d in topology %q", what, id, net.cfg.Topology.Name))
}

// full reports whether the parts are a full diffusion node's, not a mote's.
func (p *part) full() bool { return p.node.Node != nil }

// Node is one network node: the diffusion engine plus its link stack. The
// embedded core node provides the paper's NR API — Subscribe, Unsubscribe,
// Publish, Unpublish, Send, AddFilter, RemoveFilter, SendMessageToNext,
// InjectMessage — and the Stats counters.
type Node struct {
	*core.Node
	// MAC is the node's link layer (fragmentation, CSMA, queue stats).
	MAC *mac.Mac
}

// RadioStats returns the node's physical-layer counters.
func (n *Node) RadioStats() radio.TransceiverStats { return n.MAC.Radio().Stats }

// Energy evaluates the energy model on this node's measured radio times.
func (n *Node) Energy(r EnergyRatios, elapsed time.Duration, dutyCycle float64) energy.Breakdown {
	st := n.MAC.Radio().Stats
	return r.Measured(st.TxTime, st.RxTime, elapsed, dutyCycle)
}

// NewNetwork builds the network with one node per topology entry.
func NewNetwork(cfg NetworkConfig) *Network {
	if cfg.Topology == nil {
		panic("diffusion: NetworkConfig.Topology is required")
	}
	rp := radio.DefaultParams()
	if cfg.Radio != nil {
		rp = *cfg.Radio
	}
	mp := mac.DefaultParams()
	if cfg.MAC != nil {
		mp = *cfg.MAC
	}
	eng := sim.New(cfg.Seed)
	ids := cfg.Topology.IDs()
	net := &Network{
		cfg:     cfg,
		eng:     eng,
		rng:     eng.DeriveRand(),
		channel: radio.NewChannel(eng, cfg.Topology, rp),
		ids:     ids,
		parts:   make([]part, len(ids)),
		index:   make(map[uint32]int, len(ids)),
		hub:     telemetry.NewHub(eng.Now),
	}
	net.channel.Instrument(net.hub.Register(telemetry.NewRegistry("channel")))
	// Every port reads the engine's clock, so the rings share one method
	// value rather than holding one per node.
	now := eng.Now
	for i, id := range ids {
		net.index[id] = i
		pt := &net.parts[i]
		pt.port = eng.Port(id)
		// Not fmt: its printer pool, emptied by a collection, makes the
		// count of a build's allocations vary from run to run.
		pt.reg = net.hub.Register(telemetry.NewRegistry("node-" + strconv.FormatUint(uint64(id), 10)))
		if slices.Contains(cfg.MoteNodes, id) {
			m := mac.Attach(pt.port, net.channel, id, mp, func(from uint32, payload []byte) {
				pt.mote.Receive(from, payload)
			})
			pt.mote = microdiff.NewMote(m)
			net.instrumentLink(pt.reg, m)
			continue
		}
		n := &pt.node
		m := mac.Attach(pt.port, net.channel, id, mp, func(from uint32, payload []byte) {
			n.Receive(from, payload)
		})
		pt.flight = telemetry.NewRing(telemetry.DefaultFlightSize, now)
		var cusq *custody.Queue
		if cfg.Custody {
			// Journal-less in the simulator: the queue's partition
			// tolerance is what the scenarios measure, crash durability is
			// the live daemon's concern.
			cusq = custody.NewQueue(cfg.CustodyLimit, nil)
		}
		if cfg.TraceSampling > 0 {
			pt.spans = telemetry.NewRing(telemetry.DefaultSpanSize, now)
			m.Trace(pt.spans)
		}
		*n = Node{
			Node: core.NewNode(core.Config{
				Clock:               pt.port,
				Rand:                pt.port.Rand(),
				Link:                m,
				InterestInterval:    cfg.InterestInterval,
				GradientLifetime:    cfg.GradientLifetime,
				ExploratoryInterval: cfg.ExploratoryInterval,
				ExploratoryEvery:    cfg.ExploratoryEvery,
				TTL:                 cfg.TTL,
				ForwardJitter:       cfg.ForwardJitter,
				SeenTTL:             cfg.SeenTTL,
				DisableNegRF:        cfg.DisableNegativeReinforcement,
				Custody:             cusq,
				Flight:              pt.flight,
				TraceSample:         cfg.TraceSampling,
				Spans:               pt.spans,
			}),
			MAC: m,
		}
		n.Node.Instrument(pt.reg)
		net.instrumentLink(pt.reg, m)
	}
	// Stamp every fault into the affected nodes' flight recorders, and dump
	// them when a sink is set (SetFlightDump) so fault-laden runs
	// self-diagnose.
	net.OnFault(net.recordFaultFlight)
	return net
}

// instrumentLink wires a node's MAC, radio and energy metrics onto reg.
func (net *Network) instrumentLink(reg *telemetry.Registry, m *mac.Mac) {
	m.Instrument(reg)
	m.Radio().Instrument(reg)
	reg.AddCollector(func(emit func(string, float64)) {
		st := m.Radio().Stats
		b := energy.PaperRatios().Measured(st.TxTime, st.RxTime, net.eng.Now(), 1.0)
		emit("energy.listen_j", b.Listen)
		emit("energy.receive_j", b.Receive)
		emit("energy.send_j", b.Send)
		emit("energy.total_j", b.Total())
	})
}

// Node returns the node with the given topology ID; it panics on unknown
// IDs (a configuration error).
func (net *Network) Node(id uint32) *Node { return &net.must(id, "diffusion node", (*part).full).node }

// Mote returns the micro-diffusion mote at the given topology ID (listed
// in NetworkConfig.MoteNodes); it panics on unknown IDs.
func (net *Network) Mote(id uint32) *Mote {
	return net.must(id, "mote", func(p *part) bool { return p.mote != nil }).mote
}

// Nodes returns all full-diffusion nodes in topology order (motes are not
// included; see Mote).
func (net *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(net.parts))
	for i := range net.parts {
		if p := &net.parts[i]; p.full() {
			out = append(out, &p.node)
		}
	}
	return out
}

// IDs returns the node IDs in topology order.
func (net *Network) IDs() []uint32 { return slices.Clone(net.ids) }

// Clock returns the network's global clock, for timers in experiment
// drivers and application setup code. Code running inside a node's
// callbacks should use that node's own clock (NodeEnv), which orders its
// events with the node's rather than ahead of every node's.
func (net *Network) Clock() sim.Clock { return net.eng }

// NodeEnv returns the scheduling context of one node: its clock, event
// records and random stream. Per-node services (filters, responders) run on
// it. Panics on unknown IDs.
func (net *Network) NodeEnv(id uint32) sim.Port { return net.must(id, "node", nil).port }

// Now returns the current simulated time.
func (net *Network) Now() time.Duration { return net.eng.Now() }

// After schedules fn once, d from now, in global context.
func (net *Network) After(d time.Duration, fn func()) sim.Timer {
	return net.eng.After(d, fn)
}

// Every schedules fn every period (first firing after one period), in
// global context.
func (net *Network) Every(period time.Duration, fn func()) sim.Timer {
	return net.eng.Every(period, period, fn)
}

// Run advances the simulation by d of virtual time.
func (net *Network) Run(d time.Duration) {
	net.eng.RunUntil(net.eng.Now() + d)
}

// RunRealtime advances the simulation by d of virtual time, pacing event
// execution against the wall clock scaled by speed (1 = real time, 10 =
// ten times faster). All node logic still runs deterministically on the
// single simulation thread; only the pacing is real — this is how the
// examples run "live" without any concurrency in the protocol code.
// Speeds <= 0 behave like Run.
func (net *Network) RunRealtime(d time.Duration, speed float64) {
	if speed <= 0 {
		net.Run(d)
		return
	}
	horizon := net.eng.Now() + d
	wallStart := time.Now()
	virtStart := net.eng.Now()
	for {
		at, ok := net.eng.NextEventAt()
		if !ok || at > horizon {
			break
		}
		wait := time.Duration(float64(at-virtStart)/speed) - time.Since(wallStart)
		if wait > 0 {
			time.Sleep(wait)
		}
		net.eng.RunUntil(at)
	}
	net.eng.RunUntil(horizon)
}

// ChannelStats returns medium-wide radio counters (collisions, losses).
func (net *Network) ChannelStats() radio.ChannelStats { return net.channel.Stats() }

// TotalDiffusionBytes sums BytesSent over every node's diffusion layer —
// the paper's Figure 8 metric ("bytes sent from all diffusion modules").
func (net *Network) TotalDiffusionBytes() int {
	total := 0
	for _, p := range net.parts {
		if p.full() {
			total += p.node.Stats.BytesSent
		}
	}
	return total
}
