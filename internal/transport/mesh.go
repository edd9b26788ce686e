package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// defaultMeshQueue bounds each link's delivery queue when Mesh.QueueLimit
// is zero.
const defaultMeshQueue = 256

// Mesh is the in-process transport: a set of nodes connected by an
// explicit adjacency graph, with deliveries queued to a per-link bounded
// queue and handed to the receiver's Deliver callback from one delivery
// goroutine per link (optionally delayed and dropped). It gives
// live-runtime tests the multi-goroutine concurrency shape of the UDP
// path — every node on its own rt.Loop, deliveries crossing goroutines —
// without sockets, so a whole cluster runs in one test process.
//
// The bounded queue matches the UDP endpoint's accounting: when a
// receiver falls behind and its queue overflows, the overflowing frame is
// dropped and counted in the receiver's Stats.QueueDrops, instead of the
// mesh spawning an unbounded goroutine (or growing an unbounded buffer)
// per delivery. Call Close to stop the delivery goroutines.
type Mesh struct {
	mu     sync.Mutex
	links  map[uint32]*MeshLink
	adj    map[uint32]map[uint32]bool
	rng    *rand.Rand
	closed bool

	// Latency delays every delivery by this much before it is queued to
	// the receiver (zero = queued immediately).
	Latency time.Duration
	// Loss drops each delivery independently with this probability.
	Loss float64
	// QueueLimit bounds each link's delivery queue (0 = defaultMeshQueue).
	// Set it before the first Attach.
	QueueLimit int
}

// NewMesh returns an empty mesh; seed drives the loss stream.
func NewMesh(seed int64) *Mesh {
	return &Mesh{
		links: map[uint32]*MeshLink{},
		adj:   map[uint32]map[uint32]bool{},
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Attach adds a node, starts its delivery goroutine, and returns its
// link. Attaching an existing ID panics (test-configuration error).
func (m *Mesh) Attach(id uint32, deliver Deliver) *MeshLink {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.links[id]; dup {
		panic(fmt.Sprintf("transport: mesh node %d attached twice", id))
	}
	limit := m.QueueLimit
	if limit <= 0 {
		limit = defaultMeshQueue
	}
	l := &MeshLink{
		mesh:    m,
		id:      id,
		deliver: deliver,
		queue:   make(chan meshPacket, limit),
		done:    make(chan struct{}),
	}
	m.links[id] = l
	if m.adj[id] == nil {
		m.adj[id] = map[uint32]bool{}
	}
	go l.run()
	return l
}

// Connect makes a and b bidirectional neighbors.
func (m *Mesh) Connect(a, b uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.adj[a] == nil {
		m.adj[a] = map[uint32]bool{}
	}
	if m.adj[b] == nil {
		m.adj[b] = map[uint32]bool{}
	}
	m.adj[a][b] = true
	m.adj[b][a] = true
}

// Close stops every link's delivery goroutine and waits for them to
// drain. Sends after Close are dropped silently (the medium is gone).
func (m *Mesh) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	links := make([]*MeshLink, 0, len(m.links))
	for _, l := range m.links {
		links = append(links, l)
	}
	m.mu.Unlock()
	for _, l := range links {
		close(l.queue)
		<-l.done
	}
}

// meshPacket is one queued delivery.
type meshPacket struct {
	from uint32
	data []byte
}

// MeshLink is one node's core.Link on a Mesh.
type MeshLink struct {
	mesh    *Mesh
	id      uint32
	deliver Deliver
	stats   Stats
	queue   chan meshPacket
	done    chan struct{}
}

// ID returns the node's link-layer identifier (core.Link).
func (l *MeshLink) ID() uint32 { return l.id }

// Stats returns the link's packet accounting.
func (l *MeshLink) Stats() *Stats { return &l.stats }

// run is the link's delivery goroutine: it drains the bounded queue into
// the Deliver callback until Close.
func (l *MeshLink) run() {
	defer close(l.done)
	for pkt := range l.queue {
		l.stats.onRecv(headerSize + len(pkt.data))
		if l.deliver != nil {
			l.deliver(pkt.from, pkt.data)
		}
	}
}

// enqueue puts one delivery on the link's bounded queue, counting an
// overflow drop when the receiver has fallen behind. The mesh lock makes
// the closed check and the channel send atomic with respect to Close.
func (l *MeshLink) enqueue(from uint32, data []byte) {
	m := l.mesh
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	select {
	case l.queue <- meshPacket{from: from, data: data}:
	default:
		l.stats.QueueDrops.Add(1)
	}
}

// Send delivers payload to dst (a neighbor or Broadcast), applying the
// mesh's loss and latency (core.Link). Each receiver gets its own copy.
func (l *MeshLink) Send(dst uint32, payload []byte) error {
	if len(payload) > maxPayload {
		l.stats.SendErrors.Add(1)
		return ErrTooLarge
	}
	m := l.mesh
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if dst != Broadcast && !m.adj[l.id][dst] {
		// Match the UDP transport: unicast to a non-neighbor is an error
		// the diffusion layer counts as a link send failure.
		m.mu.Unlock()
		l.stats.SendErrors.Add(1)
		return fmt.Errorf("transport: %d is not a neighbor of %d", dst, l.id)
	}
	var targets []*MeshLink
	for nb := range m.adj[l.id] {
		if dst != Broadcast && dst != nb {
			continue
		}
		if to, ok := m.links[nb]; ok {
			if m.Loss > 0 && m.rng.Float64() < m.Loss {
				l.stats.LossInjected.Add(1)
				continue
			}
			targets = append(targets, to)
		}
	}
	latency := m.Latency
	m.mu.Unlock()
	for _, to := range targets {
		to := to
		data := make([]byte, len(payload))
		copy(data, payload)
		l.stats.onSend(headerSize+len(data), 1)
		if latency > 0 {
			time.AfterFunc(latency, func() { to.enqueue(l.id, data) })
		} else {
			to.enqueue(l.id, data)
		}
	}
	return nil
}
