package transport

import (
	"fmt"
	"math/rand"
	"sync"
)

// defaultMeshQueue bounds each link's delivery queue when Mesh.QueueLimit
// is zero.
const defaultMeshQueue = 256

// Mesh is the in-process transport: a set of nodes connected by an
// explicit adjacency graph, with deliveries queued to a per-link bounded
// queue and handed to the receiver's Deliver callback from one delivery
// goroutine per link (optionally dropped). It gives
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
	adj    map[[2]uint32]bool // directed edges; Connect adds both ways
	rng    *rand.Rand
	closed bool

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
		adj:   map[[2]uint32]bool{},
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
	go l.run()
	return l
}

// Connect makes a and b bidirectional neighbors.
func (m *Mesh) Connect(a, b uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.adj[[2]uint32{a, b}], m.adj[[2]uint32{b, a}] = true, true
}

// Close stops every link's delivery goroutine and waits for them to
// drain. Sends after Close return ErrClosed.
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
	slab    slab // what Send copies payloads into, guarded by mesh.mu
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

// Send delivers payload to dst (a neighbor or Broadcast), applying the
// mesh's loss (core.Link). Each receiver gets its own copy, carved from this
// link's slab. The mesh lock makes the closed check and the non-blocking
// queue sends atomic with respect to Close; a receiver that has fallen
// behind counts the overflow in its QueueDrops.
func (l *MeshLink) Send(dst uint32, payload []byte) error {
	if len(payload) > maxPayload {
		l.stats.SendErrors.Add(1)
		return ErrTooLarge
	}
	m := l.mesh
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if dst != Broadcast && !m.adj[[2]uint32{l.id, dst}] {
		// Match the UDP transport: unicast to a non-neighbor is an error
		// the diffusion layer counts as a link send failure.
		l.stats.SendErrors.Add(1)
		return fmt.Errorf("transport: %d is not a neighbor of %d", dst, l.id)
	}
	for nb, to := range m.links {
		if !m.adj[[2]uint32{l.id, nb}] || dst != Broadcast && dst != nb {
			continue
		}
		if m.Loss > 0 && m.rng.Float64() < m.Loss {
			l.stats.LossInjected.Add(1)
			continue
		}
		l.stats.onSend(headerSize+len(payload), 1)
		select {
		case to.queue <- meshPacket{from: l.id, data: l.slab.copyOf(payload)}:
		default:
			to.stats.QueueDrops.Add(1)
		}
	}
	return nil
}
