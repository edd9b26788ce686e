// Package fault is a deterministic fault scheduler for the simulated
// network. The paper's central robustness claim (sections 3.1 and 6.4) is
// that directed diffusion self-heals: periodic exploratory data
// re-discovers routes after node death and reinforcement re-converges onto
// a working path. This package supplies the failures that claim is about —
// node crashes and reboots, link blackouts, partitions, energy-depletion
// death, and MTBF/MTTR-driven random churn — all driven by the simulation
// clock so every fault scenario is scripted or seeded and exactly
// reproducible.
//
// The injector manipulates the network through the small Target interface,
// which diffusion.Network implements; the package itself knows nothing
// about radios or gradients, only when to pull which plug.
package fault

import (
	"fmt"
	"math/rand"
	"time"

	"diffusion/internal/sim"
)

// Target is what the injector breaks: the network-level fault surface.
// diffusion.Network implements it. Implementations must tolerate repeated
// calls (crashing a crashed node is a no-op).
type Target interface {
	// CrashNode freezes a node: radio off, link queue dropped, protocol
	// timers cancelled.
	CrashNode(id uint32)
	// RebootNode brings a crashed node back with fresh protocol state.
	RebootNode(id uint32)
	// SetLinkDown forces the directed link a→b into or out of blackout.
	SetLinkDown(a, b uint32, down bool)
	// NodeEnergy returns the node's consumed radio energy in model units
	// (energy-depletion faults poll it against a budget).
	NodeEnergy(id uint32) float64
}

// Kind classifies a fault event.
type Kind int

// Fault event kinds.
const (
	NodeDown Kind = iota
	NodeUp
	LinkDown
	LinkUp
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one injected fault, stamped with the simulation time it fired.
// Link events carry both endpoints; node events leave Peer zero.
type Event struct {
	At   time.Duration
	Kind Kind
	Node uint32
	Peer uint32
}

// String renders the event.
func (e Event) String() string {
	if e.Kind == LinkDown || e.Kind == LinkUp {
		return fmt.Sprintf("%12v %v %d<->%d", e.At, e.Kind, e.Node, e.Peer)
	}
	return fmt.Sprintf("%12v %v %d", e.At, e.Kind, e.Node)
}

// Summary counts injected faults by kind.
type Summary struct {
	NodeDowns, NodeUps, LinkDowns, LinkUps int
}

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("%d node-down, %d node-up, %d link-down, %d link-up",
		s.NodeDowns, s.NodeUps, s.LinkDowns, s.LinkUps)
}

// Injector schedules faults against a target. All randomness (churn
// inter-fault times) comes from the engine's seeded source, so a fault
// scenario replays exactly from its seed.
type Injector struct {
	clock  sim.Clock
	rng    *rand.Rand
	target Target
	down   map[uint32]bool
	events []Event
}

// New returns an injector driving target on clock — the engine's global
// context: faults touch radios and MACs across the whole network, so they
// run ahead of any node's events at the same timestamp — drawing churn
// inter-fault times from rng.
func New(clock sim.Clock, rng *rand.Rand, target Target) *Injector {
	return &Injector{clock: clock, rng: rng, target: target, down: map[uint32]bool{}}
}

// Summarize tallies the fired events by kind.
func (in *Injector) Summarize() Summary {
	var s Summary
	for _, e := range in.events {
		switch e.Kind {
		case NodeDown:
			s.NodeDowns++
		case NodeUp:
			s.NodeUps++
		case LinkDown:
			s.LinkDowns++
		case LinkUp:
			s.LinkUps++
		}
	}
	return s
}

// record appends an event stamped now.
func (in *Injector) record(k Kind, node, peer uint32) {
	in.events = append(in.events, Event{At: in.clock.Now(), Kind: k, Node: node, Peer: peer})
}

// crash takes id down immediately (idempotent).
func (in *Injector) crash(id uint32) {
	if in.down[id] {
		return
	}
	in.down[id] = true
	in.target.CrashNode(id)
	in.record(NodeDown, id, 0)
}

// reboot brings id back up immediately (idempotent).
func (in *Injector) reboot(id uint32) {
	if !in.down[id] {
		return
	}
	delete(in.down, id)
	in.target.RebootNode(id)
	in.record(NodeUp, id, 0)
}

// after schedules fn at absolute simulation time at (immediately if at has
// passed).
func (in *Injector) after(at time.Duration, fn func()) {
	in.clock.After(at-in.clock.Now(), fn)
}

// CrashAt schedules a node crash at absolute simulation time at.
func (in *Injector) CrashAt(at time.Duration, id uint32) {
	in.after(at, func() { in.crash(id) })
}

// RebootAt schedules a reboot at absolute simulation time at.
func (in *Injector) RebootAt(at time.Duration, id uint32) {
	in.after(at, func() { in.reboot(id) })
}

// CrashFor schedules an outage: crash at at, reboot outage later.
func (in *Injector) CrashFor(at time.Duration, id uint32, outage time.Duration) {
	in.CrashAt(at, id)
	in.RebootAt(at+outage, id)
}

// LinkDownAt schedules a bidirectional blackout of the a↔b link at the
// given absolute time.
func (in *Injector) LinkDownAt(at time.Duration, a, b uint32) {
	in.after(at, func() {
		in.target.SetLinkDown(a, b, true)
		in.target.SetLinkDown(b, a, true)
		in.record(LinkDown, a, b)
	})
}

// LinkUpAt schedules the a↔b link's restoration.
func (in *Injector) LinkUpAt(at time.Duration, a, b uint32) {
	in.after(at, func() {
		in.target.SetLinkDown(a, b, false)
		in.target.SetLinkDown(b, a, false)
		in.record(LinkUp, a, b)
	})
}

// PartitionAt schedules a network partition: every link between groupA and
// groupB goes dark at at. Heal it with HealAt.
func (in *Injector) PartitionAt(at time.Duration, groupA, groupB []uint32) {
	for _, a := range groupA {
		for _, b := range groupB {
			in.LinkDownAt(at, a, b)
		}
	}
}

// HealAt schedules the partition's repair.
func (in *Injector) HealAt(at time.Duration, groupA, groupB []uint32) {
	for _, a := range groupA {
		for _, b := range groupB {
			in.LinkUpAt(at, a, b)
		}
	}
}

// DepleteEnergy kills id permanently once its consumed radio energy
// reaches budget (model units, per Target.NodeEnergy), polling every
// checkEvery. This is the energy-depletion death mode: unlike churn
// outages the node never reboots — batteries do not recharge.
func (in *Injector) DepleteEnergy(id uint32, budget float64, checkEvery time.Duration) {
	if checkEvery <= 0 {
		checkEvery = 10 * time.Second
	}
	var poll func()
	poll = func() {
		if in.down[id] {
			return // crashed by something else; stay down
		}
		if in.target.NodeEnergy(id) >= budget {
			in.crash(id)
			return
		}
		in.clock.After(checkEvery, poll)
	}
	in.clock.After(checkEvery, poll)
}

// ChurnConfig drives random node churn: each listed node independently
// alternates between up-times drawn from an exponential with mean MTBF and
// outages drawn from an exponential with mean MTTR, between the Start and
// Stop simulation times. Nodes down at Stop are rebooted then, so the
// network always ends whole.
type ChurnConfig struct {
	Start, Stop time.Duration
	MTBF, MTTR  time.Duration
	Nodes       []uint32
}

// Churn schedules the configured churn process. Panics on non-positive
// MTBF/MTTR or an empty window (scenario-construction errors).
func (in *Injector) Churn(cfg ChurnConfig) {
	if cfg.MTBF <= 0 || cfg.MTTR <= 0 {
		panic(fmt.Sprintf("fault: churn requires positive MTBF/MTTR, got %v/%v", cfg.MTBF, cfg.MTTR))
	}
	if cfg.Stop <= cfg.Start {
		panic(fmt.Sprintf("fault: churn window [%v,%v) is empty", cfg.Start, cfg.Stop))
	}
	for _, id := range cfg.Nodes {
		in.scheduleFailure(id, cfg, cfg.Start+in.expDraw(cfg.MTBF))
	}
	in.after(cfg.Stop, func() {
		for _, id := range cfg.Nodes {
			in.reboot(id)
		}
	})
}

// scheduleFailure arms one node's next crash at absolute time at, then
// chains the reboot and the following failure.
func (in *Injector) scheduleFailure(id uint32, cfg ChurnConfig, at time.Duration) {
	if at >= cfg.Stop {
		return
	}
	in.after(at, func() {
		in.crash(id)
		back := in.clock.Now() + in.expDraw(cfg.MTTR)
		if back >= cfg.Stop {
			return // the end-of-window sweep reboots it
		}
		in.after(back, func() {
			in.reboot(id)
			in.scheduleFailure(id, cfg, in.clock.Now()+in.expDraw(cfg.MTBF))
		})
	})
}

// expDraw samples an exponential holding time with the given mean.
func (in *Injector) expDraw(mean time.Duration) time.Duration {
	return time.Duration(in.rng.ExpFloat64() * float64(mean))
}
