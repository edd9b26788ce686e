package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/chaos"
	"diffusion/internal/core"
	"diffusion/internal/custody"
	"diffusion/internal/message"
	"diffusion/internal/rt"
	"diffusion/internal/transport"
)

// liveSpec describes one live workload: a line of rt.Loop + transport +
// core.Node stacks with the source at one end and the sink at the other.
type liveSpec struct {
	nodes    int
	udp      bool // loopback sockets; false runs on the in-process Mesh
	reliable bool
	payload  int // bytes in the event's payload attribute
	subs     int // SubscribeLocal subscriptions at the sink (broker), 0 for a plain sink
	// custody gives every node a memory-only custody queue and moves
	// reinforced data by custody transfer (the -probe custody diagnostic;
	// no benchmark workload sets it).
	custody bool
}

const (
	windowLatency    = 1  // phase L: one event in flight
	windowThroughput = 32 // phase T
	subsPerTopic     = 8
	// drainAfter is how long a workload's generator waits with events
	// outstanding and nothing arriving before it declares them lost.
	drainAfter = 5 * time.Second
	// payloadHeader is seq(4) stamp(8) topic(4); a CRC-32 trails the payload.
	payloadHeader = 16
)

// Protocol timers for the live stacks: fast enough that refreshes and
// exploratory floods recur many times within a run, with the duplicate
// cache sized to loopback flight times — the 2-minute default would hold
// every ID of the run and turn the benchmark into a map-growth test.
const (
	liveInterval = time.Second
	liveJitter   = 2 * time.Millisecond
	liveSeenTTL  = 2 * time.Second
)

// stack is one live node.
type stack struct {
	id    uint32
	loop  *rt.Loop
	node  *core.Node
	stats *transport.Stats
	queue *custody.Queue // nil without custody
	tr    *nodeTrace     // nil in an untraced run
}

// deliver is the transport's upcall: hand the payload to the node's loop.
func (st *stack) deliver(from uint32, payload []byte) {
	nt := st.tr
	if nt == nil || !nt.t.on.Load() {
		st.loop.Post(func() { st.node.Receive(from, payload) })
		return
	}
	at := nowNS()
	pkt := sampledPkt(payload)
	st.loop.Post(func() {
		if pkt == 0 {
			st.node.Receive(from, payload)
			return
		}
		start := nowNS()
		st.node.Receive(from, payload)
		nt.add(rec{kind: recHandle, pkt: pkt, a: at, b: start, c: nowNS()})
	})
}

// liveNet is the assembled line.
type liveNet struct {
	stacks []*stack
	links  []interface{ Close() error }
	mesh   *transport.Mesh
	closed bool
}

func (ln *liveNet) source() *stack { return ln.stacks[0] }
func (ln *liveNet) sink() *stack   { return ln.stacks[len(ln.stacks)-1] }

// close stops transports first (no more upcalls), then the loops. Closing
// twice is harmless.
func (ln *liveNet) close() {
	if ln.closed {
		return
	}
	ln.closed = true
	for _, l := range ln.links {
		l.Close()
	}
	if ln.mesh != nil {
		ln.mesh.Close()
	}
	for _, st := range ln.stacks {
		st.loop.Call(func() { st.node.Close() })
		st.loop.Stop()
	}
}

// buildLine assembles the stacks from the packages' public functions, the
// way cmd/diffnode does, wrapping the seams when tr is set.
func buildLine(spec liveSpec, seed int64, tr *tracer) (*liveNet, error) {
	ln := &liveNet{}
	addrs := make([]string, spec.nodes)
	if spec.udp {
		ports, err := chaos.FreePorts("udp", spec.nodes)
		if err != nil {
			return nil, err
		}
		for i, p := range ports {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", p)
		}
	} else {
		ln.mesh = transport.NewMesh(seed)
	}
	for i := 0; i < spec.nodes; i++ {
		st := &stack{id: uint32(i + 1), loop: rt.NewLoop()}
		if tr != nil {
			st.tr = tr.node()
		}
		ln.stacks = append(ln.stacks, st)
		var link core.Link
		if spec.udp {
			cfg := transport.UDPConfig{
				ID:        st.id,
				Listen:    addrs[i],
				Neighbors: map[uint32]string{},
				Seed:      seed + int64(i),
				Deliver:   st.deliver,
			}
			if i > 0 {
				cfg.Neighbors[st.id-1] = addrs[i-1]
			}
			if i < spec.nodes-1 {
				cfg.Neighbors[st.id+1] = addrs[i+1]
			}
			if spec.reliable {
				cfg.Reliable = &transport.ReliableConfig{}
			}
			if spec.custody {
				q := custody.NewQueue(0, nil)
				st.queue = q
				cfg.Custody = &transport.CustodyOptions{
					Accept:  func(_ uint32, id message.ID, payload []byte) (bool, bool) { return q.AcceptOffer(id, payload) },
					Release: func(_ uint32, id message.ID) { q.Release(id) },
				}
			}
			u, err := transport.ListenUDP(cfg)
			if err != nil {
				ln.close()
				return nil, err
			}
			ln.links = append(ln.links, u)
			link, st.stats = u, u.Stats()
		} else {
			m := ln.mesh.Attach(st.id, st.deliver)
			if i > 0 {
				ln.mesh.Connect(st.id-1, st.id)
			}
			link, st.stats = m, m.Stats()
		}
		if st.tr != nil {
			link = tracedLink{Link: link, nt: st.tr}
		}
		st.node = core.NewNode(core.Config{
			Clock:               st.loop,
			Rand:                rand.New(rand.NewSource(seed*131 + int64(i))),
			Link:                link,
			InterestInterval:    liveInterval,
			ExploratoryInterval: liveInterval,
			ForwardJitter:       liveJitter,
			SeenTTL:             liveSeenTTL,
			Custody:             st.queue,
		})
	}
	return ln, nil
}

// counters is what the layers counted, summed over the line.
type counters struct {
	coreBytes, dataSent, duplicates, noPath, negRF, localDeliveries              int
	datagrams, wireBytes, acks, retransmits, recvDropped, queueDrops, sendErrors uint64
}

// add accumulates the difference between two readings.
func (c *counters) add(from, to counters) {
	c.coreBytes += to.coreBytes - from.coreBytes
	c.dataSent += to.dataSent - from.dataSent
	c.duplicates += to.duplicates - from.duplicates
	c.noPath += to.noPath - from.noPath
	c.negRF += to.negRF - from.negRF
	c.localDeliveries += to.localDeliveries - from.localDeliveries
	c.datagrams += to.datagrams - from.datagrams
	c.wireBytes += to.wireBytes - from.wireBytes
	c.acks += to.acks - from.acks
	c.retransmits += to.retransmits - from.retransmits
	c.recvDropped += to.recvDropped - from.recvDropped
	c.queueDrops += to.queueDrops - from.queueDrops
	c.sendErrors += to.sendErrors - from.sendErrors
}

func (ln *liveNet) counters() counters {
	var c counters
	for _, st := range ln.stacks {
		st.loop.Call(func() {
			s := st.node.Stats
			c.coreBytes += s.BytesSent
			c.dataSent += s.SentByClass[message.Data]
			c.duplicates += s.Duplicates
			c.noPath += s.DataNoPath
			c.negRF += s.NegReinforcements
			c.localDeliveries += s.LocalDeliveries
		})
		c.datagrams += st.stats.Sent.Load()
		c.wireBytes += st.stats.SentBytes.Load()
		c.acks += st.stats.AcksSent.Load()
		c.retransmits += st.stats.Retransmits.Load()
		c.recvDropped += st.stats.RecvDropped.Load()
		c.queueDrops += st.stats.QueueDrops.Load()
		c.sendErrors += st.stats.SendErrors.Load()
	}
	return c
}

// token is what the sink hands back to the generator for each event
// delivered the first time.
type token struct {
	seq   uint32
	plain bool // arrived as plain Data, i.e. over the reinforced path
}

// driver is the closed-loop load generator and the sink-side checker. The
// generator runs on the caller's goroutine; everything marked sink-owned is
// touched only on the sink's loop.
type driver struct {
	ln  *liveNet
	pub core.PublicationHandle
	rng *rand.Rand

	topicNames []string
	task       string
	scratch    []byte // generator-owned payload buffer; BlobAttr copies it
	next       uint32 // next sequence number; 0 is never used
	lostBelow  uint32 // tokens for sequences below this are stale
	// evTopic and evConf record each event's inputs from oracleBase on, for
	// the broker's delivery oracle.
	evTopic    []uint32
	evConf     []float64
	oracleBase uint32

	drain   time.Duration // how long nothing may arrive before outstanding events count as lost
	tokens  chan token
	ready   chan struct{} // the interest reached the source
	dropped chan struct{} // a warm-up event found no reinforced path

	// sink-owned
	lat        []int32 // by seq: latency in ns of the first delivery, 0 = none
	got        []uint8 // by seq: SubscribeLocal deliveries (broker)
	duplicated int
	corrupt    int
}

// subAttrs is local subscription i's formals: its topic, and for every
// third one a confidence floor.
func (d *driver) subAttrs(i int) attr.Vec {
	v := attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, d.topicNames[i/subsPerTopic])}
	if i%3 == 0 {
		v = append(v, attr.Float64Attr(attr.KeyConfidence, attr.GT, 0.5))
	}
	return v
}

// newDriver installs the application on an assembled line: the sink's
// subscriptions, the source's publication and an interest tap at the source
// that tells the generator when gradients exist. It returns the wall time
// the local subscriptions took to install.
func newDriver(spec liveSpec, ln *liveNet, seed int64) (*driver, time.Duration) {
	d := &driver{
		ln:      ln,
		rng:     rand.New(rand.NewSource(seed)),
		scratch: make([]byte, spec.payload),
		next:    1,
		drain:   drainAfter,
		tokens:  make(chan token, 4*windowThroughput), // never fuller than the window, with slack for stale tokens
		ready:   make(chan struct{}, 1),
		dropped: make(chan struct{}, 1),
		lat:     make([]int32, 1<<16),
	}
	d.task = fmt.Sprintf("bench-%08x", d.rng.Uint32())
	d.rng.Read(d.scratch)
	for t := 0; t < spec.subs/subsPerTopic; t++ {
		d.topicNames = append(d.topicNames, fmt.Sprintf("t%08x-%d", d.rng.Uint32(), t))
	}

	var install time.Duration
	sink, src := ln.sink(), ln.source()
	sink.loop.Call(func() {
		interest := attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, d.task)}
		if spec.subs > 0 {
			d.got = make([]uint8, 1<<16)
			start := time.Now()
			for i := 0; i < spec.subs; i++ {
				topic := uint32(i / subsPerTopic)
				sink.node.SubscribeLocal(d.subAttrs(i), func(m *message.Message) { d.onLocal(m, topic) })
			}
			install = time.Since(start)
			// The umbrella interest is subscribed last so its callback runs
			// after the local subscriptions' (ascending handle order) and
			// the latency stamp covers the whole delivery.
			interest = attr.Vec{attr.Any(attr.KeyTask)}
		}
		sink.node.Subscribe(interest, d.onEvent)
	})
	src.loop.Call(func() {
		tap := attr.Vec{
			attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest),
			attr.StringAttr(attr.KeyTask, attr.IS, d.task),
		}
		src.node.Subscribe(tap, func(*message.Message) {
			select {
			case d.ready <- struct{}{}:
			default:
			}
		})
		pub := attr.Vec{attr.StringAttr(attr.KeyType, attr.IS, "diffbench")}
		if spec.subs == 0 {
			pub = append(pub, attr.StringAttr(attr.KeyTask, attr.IS, d.task))
		}
		d.pub = src.node.Publish(pub)
	})
	return d, install
}

// payloadOf returns the event payload carried by m, or nil.
func payloadOf(m *message.Message) []byte {
	a, ok := m.Attrs.FindActual(attr.KeyPayload)
	if !ok || a.Val.Type != attr.TypeBlob {
		return nil
	}
	if p := a.Val.Blob(); len(p) >= payloadHeader+4 {
		return p
	}
	return nil
}

// onEvent is the sink's subscription callback: check the event, stamp its
// latency on first delivery and return a token to the generator.
func (d *driver) onEvent(m *message.Message) {
	now := nowNS()
	p := payloadOf(m)
	if p == nil || crc32.ChecksumIEEE(p[:len(p)-4]) != binary.BigEndian.Uint32(p[len(p)-4:]) {
		d.corrupt++
		return
	}
	seq := binary.BigEndian.Uint32(p)
	if a, ok := m.Attrs.FindActual(attr.KeySequence); !ok || uint32(a.Val.Int32()) != seq {
		d.corrupt++
		return
	}
	if nt := d.ln.sink().tr; nt != nil && nt.t.on.Load() && m.Class == message.Data && m.ID.PktNum%sampleEvery == 0 {
		nt.add(rec{kind: recCallback, pkt: m.ID.PktNum, a: now})
	}
	for int(seq) >= len(d.lat) {
		d.lat = append(d.lat, make([]int32, len(d.lat))...)
	}
	if d.lat[seq] != 0 {
		d.duplicated++
		return
	}
	l := now - int64(binary.BigEndian.Uint64(p[4:]))
	if l < 1 {
		l = 1
	}
	if l > math.MaxInt32 {
		l = math.MaxInt32
	}
	d.lat[seq] = int32(l)
	select {
	case d.tokens <- token{seq: seq, plain: m.Class == message.Data}:
	default:
	}
}

// onLocal is one broker subscription's callback.
func (d *driver) onLocal(m *message.Message, topic uint32) {
	p := payloadOf(m)
	if p == nil || binary.BigEndian.Uint32(p[12:]) != topic {
		d.corrupt++
		return
	}
	seq := binary.BigEndian.Uint32(p)
	for int(seq) >= len(d.got) {
		d.got = append(d.got, make([]uint8, len(d.got))...)
	}
	d.got[seq]++
}

// offer generates the next event and posts its Send to the source's loop.
// report, when set, tells the caller if the event found no reinforced path.
func (d *driver) offer(report bool) {
	seq := d.next
	d.next++
	p := d.scratch
	var topic uint32
	extra := make(attr.Vec, 0, 4)
	if n := len(d.topicNames); n > 0 {
		topic = uint32(d.rng.Intn(n))
		conf := d.rng.Float64()
		d.evTopic = append(d.evTopic, topic)
		d.evConf = append(d.evConf, conf)
		extra = append(extra,
			attr.StringAttr(attr.KeyTask, attr.IS, d.topicNames[topic]),
			attr.Float64Attr(attr.KeyConfidence, attr.IS, conf))
	}
	binary.BigEndian.PutUint32(p[0:], seq)
	binary.BigEndian.PutUint32(p[12:], topic)
	stamp := nowNS()
	binary.BigEndian.PutUint64(p[4:], uint64(stamp))
	binary.BigEndian.PutUint32(p[len(p)-4:], crc32.ChecksumIEEE(p[:len(p)-4]))
	extra = append(extra,
		attr.Int32Attr(attr.KeySequence, attr.IS, int32(seq)),
		attr.BlobAttr(attr.KeyPayload, attr.IS, p))

	src := d.ln.source()
	src.loop.Post(func() {
		nt := src.tr
		traced := nt != nil && nt.t.on.Load()
		var start int64
		if traced {
			start, nt.sent = nowNS(), 0
		}
		before := src.node.Stats.DataNoPath
		src.node.Send(d.pub, extra)
		if traced && nt.sent != 0 {
			nt.add(rec{kind: recHandle, pkt: nt.sent, a: stamp, b: start, c: nowNS()})
		}
		if report && src.node.Stats.DataNoPath != before {
			d.dropped <- struct{}{}
		}
	})
}

// warm drives the set-up handshake from events, not sleeps: wait until the
// sink's interest reaches the source, send one event (the first is
// exploratory; the sink reinforces the path it arrived on), then offer
// events until one arrives as plain Data over the reinforced path.
func (d *driver) warm() error {
	deadline := time.After(20 * time.Second)
	select {
	case <-d.ready:
	case <-deadline:
		return errors.New("set-up: the interest never reached the source")
	}
	d.offer(true)
	for {
		select {
		case tk := <-d.tokens:
			if tk.plain {
				// Warm-up events are not checked against the oracle.
				d.evTopic, d.evConf, d.oracleBase = nil, nil, d.next
				return nil
			}
			d.offer(true)
		case <-d.dropped:
			// The reinforcement is still travelling back; let the source's
			// loop receive it before offering again.
			time.Sleep(100 * time.Microsecond)
			d.offer(true)
		case <-deadline:
			return errors.New("set-up: no event arrived over a reinforced path")
		}
	}
}

// phase is one closed-loop measurement.
type phase struct {
	first, end uint32 // sequence numbers [first, end) were offered
	lost       int    // declared lost by the generator
	returned   int    // tokens the sink handed back: first deliveries
	wall       time.Duration
	delivered  int // filled by collect
	latencies  []int64
}

func (p phase) offered() int { return int(p.end - p.first) }

// run keeps window events in flight until dur has passed or limit events
// were offered (0: no limit), then drains.
func (d *driver) run(window int, dur time.Duration, limit int) phase {
	ph := phase{first: d.next}
	start := time.Now()
	stop := start.Add(dur)
	lastToken := start
	watchdog := time.NewTicker(100 * time.Millisecond)
	defer watchdog.Stop()
	outstanding := 0
	for {
		for outstanding < window && time.Now().Before(stop) && (limit == 0 || int(d.next-ph.first) < limit) {
			d.offer(false)
			outstanding++
		}
		if outstanding == 0 {
			break
		}
		select {
		case tk := <-d.tokens:
			if tk.seq >= d.lostBelow {
				outstanding--
				ph.returned++
				lastToken = time.Now()
			}
		case now := <-watchdog.C:
			if now.Sub(lastToken) > d.drain {
				ph.lost += outstanding
				outstanding = 0
				d.lostBelow = d.next
				lastToken = now
			}
		}
	}
	ph.wall = time.Since(start)
	ph.end = d.next
	return ph
}

// collect reads the sink's ledger for a finished phase.
func (d *driver) collect(ph *phase) {
	d.ln.sink().loop.Call(func() {
		for seq := ph.first; seq < ph.end; seq++ {
			if int(seq) < len(d.lat) && d.lat[seq] != 0 {
				ph.delivered++
				ph.latencies = append(ph.latencies, int64(d.lat[seq]))
			}
		}
	})
	sortInt64(ph.latencies)
}

// verify checks every event offered in [first, end) against what the sink
// saw: delivered exactly once, payload intact, and on the broker delivered
// to exactly the subscriptions a linear attr.Match scan of the topic's
// vectors selects. It returns the number of failed events.
func (d *driver) verify(first, end uint32) (failed, duplicated int, problems []string) {
	var missing, wrongFanout int
	d.ln.sink().loop.Call(func() {
		for seq := first; seq < end; seq++ {
			if int(seq) >= len(d.lat) || d.lat[seq] == 0 {
				missing++
				continue
			}
			if d.got == nil {
				continue
			}
			i := seq - d.oracleBase
			data := attr.Vec{
				attr.ClassIsData(),
				attr.StringAttr(attr.KeyTask, attr.IS, d.topicNames[d.evTopic[i]]),
				attr.Float64Attr(attr.KeyConfidence, attr.IS, d.evConf[i]),
			}
			want := 0
			for s := int(d.evTopic[i]) * subsPerTopic; s < int(d.evTopic[i]+1)*subsPerTopic; s++ {
				if attr.Match(d.subAttrs(s), data) {
					want++
				}
			}
			if int(seq) >= len(d.got) || int(d.got[seq]) != want {
				wrongFanout++
			}
		}
		failed, duplicated = missing+wrongFanout+d.duplicated+d.corrupt, d.duplicated
		if missing > 0 {
			problems = append(problems, fmt.Sprintf("%d events not delivered", missing))
		}
		if wrongFanout > 0 {
			problems = append(problems, fmt.Sprintf("%d events delivered to a different subscription count than the linear oracle", wrongFanout))
		}
		if d.duplicated > 0 {
			problems = append(problems, fmt.Sprintf("%d duplicate deliveries", d.duplicated))
		}
		if d.corrupt > 0 {
			problems = append(problems, fmt.Sprintf("%d deliveries with a bad checksum, sequence or topic", d.corrupt))
		}
	})
	return failed, duplicated, problems
}

// sampleMessage is a data message shaped like the workload's events, for
// the codec and match microbenchmarks.
func (d *driver) sampleMessage() (data *message.Message, interest attr.Vec) {
	attrs := attr.Vec{attr.StringAttr(attr.KeyType, attr.IS, "diffbench")}
	task := d.task
	interest = attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, d.task), attr.ClassIsInterest()}
	if len(d.topicNames) > 0 {
		task = d.topicNames[0]
		attrs = append(attrs, attr.Float64Attr(attr.KeyConfidence, attr.IS, 0.75))
		interest = attr.Vec{attr.Any(attr.KeyTask), attr.ClassIsInterest()}
	}
	attrs = append(attrs,
		attr.StringAttr(attr.KeyTask, attr.IS, task),
		attr.Int32Attr(attr.KeySequence, attr.IS, 12345),
		attr.BlobAttr(attr.KeyPayload, attr.IS, d.scratch),
		attr.ClassIsData())
	return &message.Message{
		Class:   message.Data,
		ID:      message.ID{RandID: 0x5eed, PktNum: 12345},
		PrevHop: 1,
		NextHop: 2,
		Attrs:   attrs,
	}, interest
}
