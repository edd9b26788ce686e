// Package fault is a deterministic fault scheduler for the simulated
// network. The paper's central robustness claim (sections 3.1 and 6.4) is
// that directed diffusion self-heals: periodic exploratory data
// re-discovers routes after node death and reinforcement re-converges onto
// a working path. This package supplies the failures that claim is about —
// node crashes and reboots, link blackouts, and MTBF/MTTR-driven random
// churn — all driven by the simulation clock so every fault scenario is
// scripted or seeded and exactly reproducible. A scripted fault is one line
// of text (Event.String, Parse), which both schedules it and names it in a
// trace's header.
//
// The injector manipulates the network through the small Target interface,
// which diffusion.Network implements; the package itself knows nothing
// about radios or gradients, only when to pull which plug.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"diffusion/internal/sim"
)

// Target is what the injector breaks: the network-level fault surface.
// diffusion.Network implements it.
type Target interface {
	// CrashNode freezes a node: radio off, link queue dropped, protocol
	// timers cancelled.
	CrashNode(id uint32)
	// RebootNode brings a crashed node back with fresh protocol state.
	RebootNode(id uint32)
	// NodeDown reports whether a node is crashed.
	NodeDown(id uint32) bool
	// SetLinkDown forces the directed link a→b into or out of blackout.
	SetLinkDown(a, b uint32, down bool)
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

// kinds names each kind (a trace record's verb) and gives its schedule
// line (Event.String).
var kinds = [...]struct{ name, line string }{
	NodeDown: {"node-down", "crash node %d at %v"},
	NodeUp:   {"node-up", "reboot node %d at %v"},
	LinkDown: {"link-down", "link %d<->%d down at %v"},
	LinkUp:   {"link-up", "link %d<->%d up at %v"},
}

// String renders the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kinds) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kinds[k].name
}

// Event is one fault at an absolute simulation time: a line of a schedule
// before it fires, the record of it once it has. Link events carry both
// endpoints; node events leave Peer zero.
type Event struct {
	At   time.Duration
	Kind Kind
	Node uint32
	Peer uint32
}

// String writes the event as a schedule line, the form Parse reads.
func (e Event) String() string {
	switch e.Kind {
	case NodeDown, NodeUp:
		return fmt.Sprintf(kinds[e.Kind].line, e.Node, e.At)
	case LinkDown, LinkUp:
		return fmt.Sprintf(kinds[e.Kind].line, e.Node, e.Peer, e.At)
	}
	return fmt.Sprintf("%v %d %d at %v", e.Kind, e.Node, e.Peer, e.At)
}

// lineForms are the schedule lines Parse reads, D a time.Duration.
const lineForms = `"crash node N at D", "reboot node N at D", "link A<->B down at D" or "link A<->B up at D"`

// Parse reads one schedule line, written as Event.String writes it. It
// rejects any other verb by name, a node ID that is zero or not a number,
// a link without two ends, and a time that is malformed or negative.
func Parse(line string) (Event, error) {
	f := strings.Fields(line)
	if len(f) > 0 && f[0] != "crash" && f[0] != "reboot" && f[0] != "link" {
		return Event{}, fmt.Errorf("fault: %q: unknown verb %q", line, f[0])
	}
	var e Event
	var err error
	shaped := len(f) == 5 && f[3] == "at"
	switch {
	case shaped && f[0] != "link" && f[1] == "node":
		e.Kind = map[string]Kind{"crash": NodeDown, "reboot": NodeUp}[f[0]]
		e.Node, err = parseID(f[2])
	case shaped && f[0] == "link" && (f[2] == "down" || f[2] == "up"):
		e.Kind = map[string]Kind{"down": LinkDown, "up": LinkUp}[f[2]]
		a, b, ok := strings.Cut(f[1], "<->")
		if !ok {
			return Event{}, fmt.Errorf("fault: %q: a link names two ends, A<->B", line)
		}
		if e.Node, err = parseID(a); err == nil {
			e.Peer, err = parseID(b)
		}
	default:
		return Event{}, fmt.Errorf("fault: %q: want %s", line, lineForms)
	}
	if err != nil {
		return Event{}, fmt.Errorf("fault: %q: %w", line, err)
	}
	if e.At, err = time.ParseDuration(f[4]); err != nil || e.At < 0 {
		return Event{}, fmt.Errorf("fault: %q: bad time %q", line, f[4])
	}
	return e, nil
}

// parseID reads a node ID, which is a positive decimal number.
func parseID(s string) (uint32, error) {
	id, err := strconv.ParseUint(s, 10, 32)
	if err != nil || id == 0 {
		return 0, fmt.Errorf("bad node ID %q", s)
	}
	return uint32(id), nil
}

// Summary counts fired faults by kind; a link fault counts once for both
// directions.
type Summary [len(kinds)]int

// String renders the summary.
func (s Summary) String() string {
	return fmt.Sprintf("%d node-down, %d node-up, %d link-down, %d link-up",
		s[NodeDown], s[NodeUp], s[LinkDown], s[LinkUp])
}

// Injector schedules faults against a target. All randomness (churn
// inter-fault times) comes from the engine's seeded source, so a fault
// scenario replays exactly from its seed.
type Injector struct {
	clock  sim.Clock
	rng    *rand.Rand
	target Target
	sum    Summary
}

// New returns an injector driving target on clock — the engine's global
// context: faults touch radios and MACs across the whole network, so they
// run ahead of any node's events at the same timestamp — drawing churn
// inter-fault times from rng.
func New(clock sim.Clock, rng *rand.Rand, target Target) *Injector {
	return &Injector{clock: clock, rng: rng, target: target}
}

// Summarize returns the counts of the faults fired so far.
func (in *Injector) Summarize() Summary { return in.sum }

// after schedules fn at absolute simulation time at (immediately if at has
// passed).
func (in *Injector) after(at time.Duration, fn func()) {
	in.clock.After(at-in.clock.Now(), fn)
}

// Schedule fires each event at its time; one that is due already fires
// now, within the call.
func (in *Injector) Schedule(evs ...Event) {
	for _, e := range evs {
		if e.At <= in.clock.Now() {
			in.fire(e)
		} else {
			in.after(e.At, func() { in.fire(e) })
		}
	}
}

// fire applies one event now, whatever its At. A link event acts on both
// directions; crashing a crashed node or rebooting a live one does nothing.
func (in *Injector) fire(e Event) {
	switch {
	case e.Kind == NodeDown && !in.target.NodeDown(e.Node):
		in.target.CrashNode(e.Node)
	case e.Kind == NodeUp && in.target.NodeDown(e.Node):
		in.target.RebootNode(e.Node)
	case e.Kind == LinkDown || e.Kind == LinkUp:
		in.target.SetLinkDown(e.Node, e.Peer, e.Kind == LinkDown)
		in.target.SetLinkDown(e.Peer, e.Node, e.Kind == LinkDown)
	default:
		return
	}
	in.sum[e.Kind]++
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
			in.fire(Event{Kind: NodeUp, Node: id})
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
		in.fire(Event{Kind: NodeDown, Node: id})
		back := in.clock.Now() + in.expDraw(cfg.MTTR)
		if back >= cfg.Stop {
			return // the end-of-window sweep reboots it
		}
		in.after(back, func() {
			in.fire(Event{Kind: NodeUp, Node: id})
			in.scheduleFailure(id, cfg, in.clock.Now()+in.expDraw(cfg.MTBF))
		})
	})
}

// expDraw samples an exponential holding time with the given mean.
func (in *Injector) expDraw(mean time.Duration) time.Duration {
	return time.Duration(in.rng.ExpFloat64() * float64(mean))
}
