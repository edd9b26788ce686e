package diffusion

import (
	"diffusion/internal/fault"
)

// Fault-injection types, re-exported from the fault layer.
type (
	// FaultInjector schedules scripted and randomized faults on the
	// simulation clock; build one with NewFaultInjector.
	FaultInjector = fault.Injector
	// FaultEvent is one injected fault with its simulation timestamp.
	FaultEvent = fault.Event
	// FaultKind classifies fault events.
	FaultKind = fault.Kind
	// ChurnConfig drives MTBF/MTTR random node churn.
	ChurnConfig = fault.ChurnConfig
)

// Fault event kinds.
const (
	FaultNodeDown = fault.NodeDown
	FaultNodeUp   = fault.NodeUp
	FaultLinkDown = fault.LinkDown
	FaultLinkUp   = fault.LinkUp
)

// NewFaultInjector returns a fault injector bound to this network's clock.
// Faults fire deterministically from the network seed, so a failure
// scenario is as replayable as a fault-free run.
func (net *Network) NewFaultInjector() *FaultInjector {
	return fault.New(net.eng, net.rng, (*faultTarget)(net))
}

// faultTarget adapts Network to fault.Target without exposing the crash
// plumbing as part of the injector itself.
type faultTarget Network

func (t *faultTarget) CrashNode(id uint32)  { (*Network)(t).CrashNode(id) }
func (t *faultTarget) RebootNode(id uint32) { (*Network)(t).RebootNode(id) }
func (t *faultTarget) SetLinkDown(a, b uint32, down bool) {
	(*Network)(t).SetLinkDown(a, b, down)
}
func (t *faultTarget) NodeEnergy(id uint32) float64 {
	return (*Network)(t).NodeEnergyConsumed(id)
}

// OnFault registers fn to observe every fault applied to the network
// (crashes, reboots, link blackouts), however injected. Traces use it to
// make churn runs self-describing.
func (net *Network) OnFault(fn func(FaultEvent)) {
	net.faultHooks = append(net.faultHooks, fn)
}

func (net *Network) notifyFault(k FaultKind, node, peer uint32) {
	ev := FaultEvent{At: net.Now(), Kind: k, Node: node, Peer: peer}
	for _, fn := range net.faultHooks {
		fn(ev)
	}
}

// CrashNode kills the full-diffusion node id mid-run: its radio goes
// silent in both directions, the MAC queue and reassembly state are
// dropped, and the diffusion core freezes with its timers cancelled.
// Everything in flight through the node is lost, exactly as when a
// testbed node loses power. Crashing a crashed node is a no-op; motes
// cannot be crashed (Node panics on mote IDs).
func (net *Network) CrashNode(id uint32) {
	p := net.must(id, "diffusion node", (*part).full)
	if p.down {
		return
	}
	p.down = true
	net.channel.SetNodeDown(id, true)
	p.node.MAC.Detach()
	p.node.Node.Detach()
	net.notifyFault(FaultNodeDown, id, 0)
}

// RebootNode restarts a crashed node with fresh protocol state: gradients,
// caches and reinforcement traces are gone, and the application layer
// re-subscribes and re-publishes (subscriptions resume their interest
// floods; each publication's next message is exploratory). Rebooting a
// live node is a no-op.
func (net *Network) RebootNode(id uint32) {
	p := net.must(id, "diffusion node", (*part).full)
	if !p.down {
		return
	}
	p.down = false
	net.channel.SetNodeDown(id, false)
	p.node.MAC.Restart()
	p.node.Node.Restart()
	net.notifyFault(FaultNodeUp, id, 0)
}

// NodeDown reports whether id is currently crashed.
func (net *Network) NodeDown(id uint32) bool {
	p := net.part(id)
	return p != nil && p.down
}

// SetLinkDown forces the directed radio link a→b into or out of blackout
// (see radio.Channel.SetLinkDown). Use a FaultInjector for scheduled,
// bidirectional blackouts and partitions.
func (net *Network) SetLinkDown(a, b uint32, down bool) {
	net.channel.SetLinkDown(a, b, down)
	if down {
		net.notifyFault(FaultLinkDown, a, b)
	} else {
		net.notifyFault(FaultLinkUp, a, b)
	}
}

// NodeEnergyConsumed returns the node's consumed radio energy in the
// paper's model units at full listen duty cycle — the budget the
// energy-depletion fault counts down.
func (net *Network) NodeEnergyConsumed(id uint32) float64 {
	return net.Node(id).Energy(PaperEnergyRatios(), net.Now(), 1.0).Total()
}

// ReinforcedPath walks the reinforced gradient chain for the given
// subscription attributes from the sink toward the data source: each hop
// is the neighbor the previous node last positively reinforced. The walk
// stops at maxHops, at a node with no reinforced upstream (the source, in
// a converged network), at a crashed node, or on a loop. The returned path
// starts with the sink itself. Fault experiments use it to find the relay
// whose death must be repaired.
func (net *Network) ReinforcedPath(sink uint32, attrs Attributes, maxHops int) []uint32 {
	if maxHops <= 0 {
		maxHops = 32
	}
	path := []uint32{sink}
	visited := map[uint32]bool{sink: true}
	cur := sink
	for len(path) <= maxHops {
		if net.NodeDown(cur) {
			break
		}
		next, ok := net.Node(cur).ReinforcedUpstream(attrs)
		if !ok || visited[next] {
			break
		}
		if p := net.part(next); p == nil || !p.full() {
			break // upstream is a mote or unknown; stop the walk
		}
		path = append(path, next)
		visited[next] = true
		cur = next
	}
	return path
}
