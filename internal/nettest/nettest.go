// Package nettest provides a perfect in-memory link layer with an explicit
// adjacency graph for protocol-level tests: it lets core, filters and
// micro-diffusion tests exercise diffusion logic deterministically without
// the MAC and radio models. It is a test substrate, not part of the public
// system.
package nettest

import (
	"sort"
	"time"

	"diffusion/internal/core"
	"diffusion/internal/sim"
)

// Receiver is anything that accepts link-layer payloads (full diffusion
// nodes and micro-diffusion motes alike).
type Receiver interface {
	Receive(from uint32, payload []byte)
}

// Net is an in-memory network of diffusion nodes.
type Net struct {
	Sched *sim.Engine
	Nodes map[uint32]*core.Node
	recvs map[uint32]Receiver
	adj   map[uint32]map[uint32]bool
	dead  map[uint32]bool
	// Delay is the per-hop delivery latency.
	Delay time.Duration
	// LossProb drops each delivery independently with this probability
	// (loss injection for reliability tests).
	LossProb float64
}

// New returns an empty network driven by a scheduler seeded with seed.
func New(seed int64) *Net {
	return &Net{
		Sched: sim.New(seed),
		Nodes: map[uint32]*core.Node{},
		recvs: map[uint32]Receiver{},
		adj:   map[uint32]map[uint32]bool{},
		dead:  map[uint32]bool{},
		Delay: time.Millisecond,
	}
}

// Link is the in-memory core.Link for one node.
type Link struct {
	net *Net
	id  uint32
}

// ID returns the node id.
func (l *Link) ID() uint32 { return l.id }

// Send delivers payload to the destination (or all neighbors on
// broadcast) after the network delay. Dead nodes neither send nor receive.
func (l *Link) Send(dst uint32, payload []byte) error {
	if l.net.dead[l.id] {
		return nil
	}
	data := make([]byte, len(payload))
	copy(data, payload)
	from := l.id
	// Sorted neighbor order keeps delivery (and loss-draw consumption)
	// deterministic; map iteration order would make runs flaky.
	nbrs := make([]uint32, 0, len(l.net.adj[l.id]))
	for nb := range l.net.adj[l.id] {
		nbrs = append(nbrs, nb)
	}
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
	for _, nb := range nbrs {
		if dst != core.Broadcast && dst != nb {
			continue
		}
		nb := nb
		if l.net.LossProb > 0 && l.net.Sched.Rand().Float64() < l.net.LossProb {
			continue
		}
		l.net.Sched.After(l.net.Delay, func() {
			if l.net.dead[nb] || l.net.dead[from] {
				return
			}
			if r := l.net.recvs[nb]; r != nil {
				r.Receive(from, data)
			}
		})
	}
	return nil
}

// AddNode creates a diffusion node with fast test timings; tweak may
// adjust the configuration before construction.
func (n *Net) AddNode(id uint32, tweak func(*core.Config)) *core.Node {
	cfg := core.Config{
		Clock:            n.Sched,
		Rand:             n.Sched.Rand(),
		Link:             &Link{net: n, id: id},
		InterestInterval: 10 * time.Second,
		ExploratoryEvery: 5,
		ForwardJitter:    5 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	node := core.NewNode(cfg)
	n.Nodes[id] = node
	n.recvs[id] = node
	if n.adj[id] == nil {
		n.adj[id] = map[uint32]bool{}
	}
	return node
}

// NewLink creates a bare link endpoint for id without a diffusion node;
// the caller must register the receiver with SetReceiver. Used to attach
// micro-diffusion motes.
func (n *Net) NewLink(id uint32) *Link {
	if n.adj[id] == nil {
		n.adj[id] = map[uint32]bool{}
	}
	return &Link{net: n, id: id}
}

// SetReceiver registers the payload handler for a link created with
// NewLink.
func (n *Net) SetReceiver(id uint32, r Receiver) { n.recvs[id] = r }

// Connect links a and b bidirectionally.
func (n *Net) Connect(a, b uint32) {
	if n.adj[a] == nil {
		n.adj[a] = map[uint32]bool{}
	}
	if n.adj[b] == nil {
		n.adj[b] = map[uint32]bool{}
	}
	n.adj[a][b] = true
	n.adj[b][a] = true
}

// Line builds nodes 1..k connected in a chain and returns them in order.
func (n *Net) Line(k int) []*core.Node {
	nodes := make([]*core.Node, k)
	for i := 1; i <= k; i++ {
		nodes[i-1] = n.AddNode(uint32(i), nil)
		if i > 1 {
			n.Connect(uint32(i-1), uint32(i))
		}
	}
	return nodes
}

// Kill disconnects a node permanently.
func (n *Net) Kill(id uint32) { n.dead[id] = true }
