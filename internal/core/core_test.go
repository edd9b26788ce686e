package core

import (
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/message"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
)

// testNet is a perfect in-memory link layer with an explicit adjacency
// graph, so core-protocol tests are independent of the MAC and radio.
type testNet struct {
	s     *sim.Engine
	nodes map[uint32]*Node
	adj   map[uint32]map[uint32]bool
	dead  map[uint32]bool
	cut   map[[2]uint32]bool // partitioned links (both directions)
	delay time.Duration
}

func newTestNet(seed int64) *testNet {
	return &testNet{
		s:     sim.New(seed),
		nodes: map[uint32]*Node{},
		adj:   map[uint32]map[uint32]bool{},
		dead:  map[uint32]bool{},
		cut:   map[[2]uint32]bool{},
		delay: time.Millisecond,
	}
}

// setCut partitions (or heals) the link between a and b.
func (tn *testNet) setCut(a, b uint32, down bool) {
	tn.cut[linkKey(a, b)] = down
}

func linkKey(a, b uint32) [2]uint32 {
	if a > b {
		a, b = b, a
	}
	return [2]uint32{a, b}
}

type testLink struct {
	net *testNet
	id  uint32
}

func (l *testLink) ID() uint32 { return l.id }

func (l *testLink) Send(dst uint32, payload []byte) error {
	if l.net.dead[l.id] {
		return nil
	}
	data := make([]byte, len(payload))
	copy(data, payload)
	from := l.id
	for nb := range l.net.adj[l.id] {
		if dst != Broadcast && dst != nb {
			continue
		}
		nb := nb
		if l.net.dead[nb] || l.net.cut[linkKey(l.id, nb)] {
			continue
		}
		l.net.s.After(l.net.delay, func() {
			if l.net.dead[nb] || l.net.dead[from] {
				return
			}
			if n := l.net.nodes[nb]; n != nil {
				n.Receive(from, data)
			}
		})
	}
	return nil
}

// addNode creates a node with fast test timings.
func (tn *testNet) addNode(id uint32, tweak func(*Config)) *Node {
	cfg := Config{
		Clock:            tn.s,
		Rand:             tn.s.Rand(),
		Link:             &testLink{net: tn, id: id},
		InterestInterval: 10 * time.Second,
		ExploratoryEvery: 5,
		ForwardJitter:    5 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	n := NewNode(cfg)
	tn.nodes[id] = n
	if tn.adj[id] == nil {
		tn.adj[id] = map[uint32]bool{}
	}
	return n
}

func (tn *testNet) connect(a, b uint32) {
	if tn.adj[a] == nil {
		tn.adj[a] = map[uint32]bool{}
	}
	if tn.adj[b] == nil {
		tn.adj[b] = map[uint32]bool{}
	}
	tn.adj[a][b] = true
	tn.adj[b][a] = true
}

// line builds nodes 1..n connected in a chain.
func (tn *testNet) line(n int) []*Node {
	nodes := make([]*Node, n)
	for i := 1; i <= n; i++ {
		nodes[i-1] = tn.addNode(uint32(i), nil)
		if i > 1 {
			tn.connect(uint32(i-1), uint32(i))
		}
	}
	return nodes
}

func surveillanceInterest() attr.Vec {
	return attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "surveillance"),
		attr.Int32Attr(attr.KeyInterval, attr.IS, 1000),
	}
}

func surveillancePublication() attr.Vec {
	return attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.IS, "surveillance"),
	}
}

func TestInterestPropagatesAndSetsGradients(t *testing.T) {
	tn := newTestNet(1)
	nodes := tn.line(3)
	nodes[0].Subscribe(surveillanceInterest(), func(*message.Message) {})
	tn.s.RunUntil(2 * time.Second)

	// Node 2 must hold an interest entry with a gradient toward node 1.
	if nodes[1].Entries() != 1 {
		t.Fatalf("node 2 entries = %d, want 1", nodes[1].Entries())
	}
	e2 := firstEntry(nodes[1])
	if r := e2.find(1); r == nil || !r.grad {
		t.Error("node 2 must have a gradient toward node 1")
	}
	e3 := firstEntry(nodes[2])
	if r := e3.find(2); r == nil || !r.grad {
		t.Error("node 3 must have a gradient toward node 2")
	}
}

func firstEntry(n *Node) *interestEntry {
	for _, e := range n.entries {
		return e
	}
	return nil
}

// TestDiffusionPhases is the Figure 1 schematic as an integration test:
// interest propagation, gradient setup, exploratory delivery, reinforced
// high-rate delivery.
func TestDiffusionPhases(t *testing.T) {
	tn := newTestNet(2)
	nodes := tn.line(4)
	sink, source := nodes[0], nodes[3]

	var got []message.Class
	sink.Subscribe(surveillanceInterest(), func(m *message.Message) {
		got = append(got, m.Class)
	})
	pub := source.Publish(surveillancePublication())

	// Source reports every second once tasked.
	seq := int32(0)
	tn.s.Every(3*time.Second, time.Second, func() {
		seq++
		source.Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
	})
	tn.s.RunUntil(20 * time.Second)

	if len(got) < 10 {
		t.Fatalf("sink received %d messages, want most of %d", len(got), seq)
	}
	if got[0] != message.ExploratoryData {
		t.Errorf("first delivery should be exploratory, got %v", got[0])
	}
	plain := 0
	for _, c := range got {
		if c == message.Data {
			plain++
		}
	}
	if plain == 0 {
		t.Error("reinforced path should carry plain data messages")
	}
	// Intermediate nodes must have a reinforced gradient toward the sink
	// side.
	e := firstEntry(nodes[2]) // node 3
	reinforced := false
	for _, r := range e.nbs {
		if r.reinforced(tn.s.Now()) {
			reinforced = true
		}
	}
	if !reinforced {
		t.Error("intermediate node should hold a reinforced gradient")
	}
}

func TestDataSuppressedWithoutInterest(t *testing.T) {
	tn := newTestNet(3)
	nodes := tn.line(2)
	src := nodes[1]
	pub := src.Publish(surveillancePublication())
	src.Send(pub, nil)
	tn.s.RunUntil(time.Second)
	if src.Stats.DataSuppressed != 1 {
		t.Errorf("data without gradients must be suppressed: %+v", src.Stats)
	}
	if src.Stats.BytesSent != 0 {
		t.Error("suppressed data must not reach the link")
	}
}

func TestPassiveInterestTap(t *testing.T) {
	// The paper's "subscribe for subscriptions": a source learns that a
	// sink's interest arrived without flooding anything itself.
	tn := newTestNet(4)
	nodes := tn.line(3)
	source := nodes[2]

	var seen []*message.Message
	source.Subscribe(attr.Vec{
		attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest),
		attr.StringAttr(attr.KeyTask, attr.IS, "surveillance"),
	}, func(m *message.Message) { seen = append(seen, m.Clone()) })

	tn.s.RunUntil(2 * time.Second)
	if len(seen) != 0 {
		t.Fatal("tap must not fire before any interest exists")
	}
	if source.Stats.SentByClass[message.Interest] != 0 {
		t.Fatal("passive subscription must not originate interests")
	}

	nodes[0].Subscribe(surveillanceInterest(), nil)
	tn.s.RunUntil(4 * time.Second)
	if len(seen) == 0 {
		t.Fatal("tap should deliver the sink's interest")
	}
	if seen[0].Class != message.Interest {
		t.Errorf("tap delivered %v", seen[0].Class)
	}
}

func TestUnsubscribeStopsRefreshAndGradientsExpire(t *testing.T) {
	tn := newTestNet(5)
	var nodes []*Node
	for i := 1; i <= 3; i++ {
		id := uint32(i)
		nodes = append(nodes, tn.addNode(id, func(c *Config) {
			c.InterestInterval = 5 * time.Second
			c.GradientLifetime = 12 * time.Second
		}))
		if i > 1 {
			tn.connect(uint32(i-1), id)
		}
	}
	h := nodes[0].Subscribe(surveillanceInterest(), nil)
	tn.s.RunUntil(3 * time.Second)
	if nodes[1].Entries() != 1 {
		t.Fatal("gradient should exist while subscribed")
	}
	if err := nodes[0].Unsubscribe(h); err != nil {
		t.Fatal(err)
	}
	tn.s.RunUntil(60 * time.Second)
	if nodes[1].Entries() != 0 {
		t.Error("entries must expire after refreshes stop")
	}
	if err := nodes[0].Unsubscribe(h); err == nil {
		t.Error("double unsubscribe must fail")
	}
}

func TestInterestRefreshKeepsGradientsAlive(t *testing.T) {
	tn := newTestNet(6)
	nodes := tn.line(3)
	nodes[0].Subscribe(surveillanceInterest(), nil)
	tn.s.RunUntil(90 * time.Second) // 9 refresh cycles
	if nodes[2].Entries() != 1 {
		t.Error("periodic refresh must keep gradients alive")
	}
}

func TestTTLBoundsFlood(t *testing.T) {
	tn := newTestNet(7)
	var nodes []*Node
	for i := 1; i <= 6; i++ {
		nodes = append(nodes, tn.addNode(uint32(i), func(c *Config) { c.TTL = 3 }))
		if i > 1 {
			tn.connect(uint32(i-1), uint32(i))
		}
	}
	nodes[0].Subscribe(surveillanceInterest(), nil)
	tn.s.RunUntil(5 * time.Second)
	if nodes[3].Entries() == 0 {
		t.Error("interest should reach hop 3")
	}
	if nodes[5].Entries() != 0 {
		t.Error("interest must not travel past the TTL")
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// In a triangle, each node hears each flood twice; duplicates must be
	// counted and not re-forwarded.
	tn := newTestNet(8)
	a := tn.addNode(1, nil)
	b := tn.addNode(2, nil)
	c := tn.addNode(3, nil)
	tn.connect(1, 2)
	tn.connect(2, 3)
	tn.connect(1, 3)
	a.Subscribe(surveillanceInterest(), nil)
	tn.s.RunUntil(2 * time.Second)
	if b.Stats.Duplicates == 0 && c.Stats.Duplicates == 0 {
		t.Error("triangle flood must produce duplicates")
	}
	// Each node forwards the single interest exactly once.
	if b.Stats.SentByClass[message.Interest] != 1 {
		t.Errorf("node 2 forwarded interest %d times, want 1",
			b.Stats.SentByClass[message.Interest])
	}
}

func TestNegativeReinforcementPrunesDuplicatePaths(t *testing.T) {
	// Diamond: 1 - {2,3} - 4. Both relays initially deliver; duplicate
	// plain data must trigger negative reinforcement until only one
	// reinforced path remains.
	tn := newTestNet(9)
	n1 := tn.addNode(1, nil)
	n2 := tn.addNode(2, nil)
	n3 := tn.addNode(3, nil)
	n4 := tn.addNode(4, nil)
	tn.connect(1, 2)
	tn.connect(1, 3)
	tn.connect(2, 4)
	tn.connect(3, 4)

	n1.Subscribe(surveillanceInterest(), nil)
	pub := n4.Publish(surveillancePublication())
	seq := int32(0)
	tn.s.Every(2*time.Second, 500*time.Millisecond, func() {
		seq++
		n4.Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
	})
	tn.s.RunUntil(60 * time.Second)

	negrf := n1.Stats.NegReinforcements + n2.Stats.NegReinforcements +
		n3.Stats.NegReinforcements + n4.Stats.NegReinforcements
	if negrf == 0 {
		t.Error("duplicate delivery in a diamond should trigger negative reinforcement")
	}
	// Pruning must bound duplicate plain-data delivery: without it, every
	// one of the ~116 events would arrive at the sink twice. Compare with
	// an identical run with negative reinforcement disabled.
	dupsWith := n1.Stats.Duplicates
	tn2 := newTestNet(9)
	d1 := tn2.addNode(1, func(c *Config) { c.DisableNegRF = true })
	tn2.addNode(2, func(c *Config) { c.DisableNegRF = true })
	tn2.addNode(3, func(c *Config) { c.DisableNegRF = true })
	d4 := tn2.addNode(4, func(c *Config) { c.DisableNegRF = true })
	tn2.connect(1, 2)
	tn2.connect(1, 3)
	tn2.connect(2, 4)
	tn2.connect(3, 4)
	d1.Subscribe(surveillanceInterest(), nil)
	pub2 := d4.Publish(surveillancePublication())
	seq2 := int32(0)
	tn2.s.Every(2*time.Second, 500*time.Millisecond, func() {
		seq2++
		d4.Send(pub2, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq2)})
	})
	tn2.s.RunUntil(60 * time.Second)
	dupsWithout := d1.Stats.Duplicates
	if dupsWith >= dupsWithout {
		t.Errorf("negative reinforcement should reduce sink duplicates: with=%d without=%d",
			dupsWith, dupsWithout)
	}
}

func TestPathRepairAfterNodeFailure(t *testing.T) {
	// Diamond with distinct path lengths: 1-2-4 and 1-3-4. Kill whichever
	// relay carries data; periodic exploratory messages must re-establish
	// delivery through the other relay (section 3.1 path repair).
	tn := newTestNet(10)
	n1 := tn.addNode(1, nil)
	tn.addNode(2, nil)
	tn.addNode(3, nil)
	n4 := tn.addNode(4, nil)
	tn.connect(1, 2)
	tn.connect(1, 3)
	tn.connect(2, 4)
	tn.connect(3, 4)

	var deliveries []time.Duration
	n1.Subscribe(surveillanceInterest(), func(m *message.Message) {
		deliveries = append(deliveries, tn.s.Now())
	})
	pub := n4.Publish(surveillancePublication())
	seq := int32(0)
	tn.s.Every(2*time.Second, time.Second, func() {
		seq++
		n4.Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
	})

	tn.s.RunUntil(10 * time.Second)
	if len(deliveries) == 0 {
		t.Fatal("no deliveries before failure")
	}
	// Kill the relay on the reinforced path.
	e := firstEntry(n4)
	victim := uint32(2)
	for _, r := range e.nbs {
		if r.reinforced(tn.s.Now()) {
			victim = uint32(r.nb)
		}
	}
	tn.dead[victim] = true
	before := len(deliveries)
	tn.s.RunUntil(120 * time.Second)
	after := len(deliveries) - before
	if after < 20 {
		t.Errorf("only %d deliveries after killing node %d; repair failed", after, victim)
	}
}

func TestPathRepair(t *testing.T) {
	// The ISSUE's acceptance criterion, at the core layer: crash the
	// reinforced next-hop with Detach (the fault-injection primitive, not
	// just a silent link) and delivery must resume within two exploratory
	// intervals — the bound the paper's repair-cadence argument implies
	// (section 3.1: exploratory data periodically re-discovers routes;
	// reinforcement re-converges on the first one that delivers).
	const exploratory = 15 * time.Second
	tn := newTestNet(12)
	tweak := func(c *Config) {
		c.ExploratoryEvery = 0
		c.ExploratoryInterval = exploratory
	}
	n1 := tn.addNode(1, tweak)
	tn.addNode(2, tweak)
	tn.addNode(3, tweak)
	n4 := tn.addNode(4, tweak)
	tn.connect(1, 2)
	tn.connect(1, 3)
	tn.connect(2, 4)
	tn.connect(3, 4)

	sentAt := map[int32]time.Duration{}
	firstRx := map[int32]time.Duration{}
	n1.Subscribe(surveillanceInterest(), func(m *message.Message) {
		if a, ok := m.Attrs.FindActual(attr.KeySequence); ok {
			if _, seen := firstRx[a.Val.Int32()]; !seen {
				firstRx[a.Val.Int32()] = tn.s.Now()
			}
		}
	})
	pub := n4.Publish(surveillancePublication())
	seq := int32(0)
	tn.s.Every(2*time.Second, time.Second, func() {
		seq++
		sentAt[seq] = tn.s.Now()
		n4.Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
	})

	// Let the path converge, then crash the relay the sink reinforced.
	var victim uint32
	var killAt time.Duration
	var killSeq int32
	tn.s.After(30*time.Second, func() {
		up, ok := n1.ReinforcedUpstream(surveillanceInterest())
		if !ok {
			return
		}
		victim = up
		killAt = tn.s.Now()
		killSeq = seq
		tn.nodes[victim].Detach()
		tn.dead[victim] = true // transceiver gone too, as in a real crash
	})
	tn.s.RunUntil(2 * time.Minute)

	if victim == 0 {
		t.Fatal("no reinforced upstream at the sink after 30s; path never converged")
	}
	if victim != 2 && victim != 3 {
		t.Fatalf("reinforced upstream is %d, expected relay 2 or 3", victim)
	}
	// First delivery of an event originated after the crash bounds the
	// repair time.
	repairAt := time.Duration(-1)
	for s, at := range firstRx {
		if s > killSeq && (repairAt < 0 || at < repairAt) {
			repairAt = at
		}
	}
	if repairAt < 0 {
		t.Fatalf("no post-crash events delivered after killing node %d", victim)
	}
	if ttr := repairAt - killAt; ttr > 2*exploratory {
		t.Errorf("repair took %v after killing node %d; want <= 2 exploratory intervals (%v)",
			ttr, victim, 2*exploratory)
	}
}

func TestDetachFreezesAndRestartRejoins(t *testing.T) {
	// Detach must silence the node (no sends, no receives, no timer
	// activity) and Restart must bring it back with fresh protocol state
	// that still serves its application: the subscription re-floods
	// interests and delivery resumes.
	tn := newTestNet(13)
	nodes := tn.line(3)
	sink, relay, source := nodes[0], nodes[1], nodes[2]

	got := 0
	sink.Subscribe(surveillanceInterest(), func(*message.Message) { got++ })
	pub := source.Publish(surveillancePublication())
	seq := int32(0)
	tn.s.Every(2*time.Second, time.Second, func() {
		seq++
		source.Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
	})
	tn.s.RunUntil(10 * time.Second)
	if got == 0 {
		t.Fatal("no deliveries before crash")
	}

	relay.Detach()
	if !relay.detached {
		t.Error("Detached() must report true after Detach")
	}
	if err := relay.Send(0, nil); err != ErrDetached {
		// Send checks detachment before handle validity.
		t.Errorf("Send on detached node: err = %v, want ErrDetached", err)
	}
	before := got
	beforeSent := relay.Stats.BytesSent
	tn.s.RunUntil(25 * time.Second)
	if got != before {
		t.Errorf("%d deliveries through a 1-wide cut with the relay detached", got-before)
	}
	if relay.Stats.BytesSent != beforeSent {
		t.Errorf("detached relay sent %d bytes", relay.Stats.BytesSent-beforeSent)
	}

	relay.Restart()
	if relay.detached {
		t.Error("Detached() must report false after Restart")
	}
	if relay.Entries() != 0 {
		t.Errorf("restarted relay has %d stale entries", relay.Entries())
	}
	tn.s.RunUntil(60 * time.Second)
	if got <= before {
		t.Error("delivery did not resume after the relay restarted")
	}
}

func TestSendErrorsOnUnknownHandles(t *testing.T) {
	tn := newTestNet(11)
	n := tn.addNode(1, nil)
	if err := n.Send(99, nil); err == nil {
		t.Error("Send on unknown publication must fail")
	}
	if err := n.Unpublish(99); err == nil {
		t.Error("Unpublish on unknown handle must fail")
	}
	if err := n.Unsubscribe(99); err == nil {
		t.Error("Unsubscribe on unknown handle must fail")
	}
	if err := n.RemoveFilter(99); err == nil {
		t.Error("RemoveFilter on unknown handle must fail")
	}
	pub := n.Publish(surveillancePublication())
	if err := n.Unpublish(pub); err != nil {
		t.Error(err)
	}
	if err := n.Send(pub, nil); err == nil {
		t.Error("Send after Unpublish must fail")
	}
}

func TestMultipleSubscriptionsDelivered(t *testing.T) {
	tn := newTestNet(12)
	nodes := tn.line(2)
	var a, b int
	nodes[0].Subscribe(surveillanceInterest(), func(*message.Message) { a++ })
	nodes[0].Subscribe(surveillanceInterest(), func(*message.Message) { b++ })
	pub := nodes[1].Publish(surveillancePublication())
	tn.s.After(2*time.Second, func() { nodes[1].Send(pub, nil) })
	tn.s.RunUntil(5 * time.Second)
	if a != 1 || b != 1 {
		t.Errorf("both subscriptions should deliver once: a=%d b=%d", a, b)
	}
}

func TestExploratoryCadence(t *testing.T) {
	tn := newTestNet(13)
	nodes := tn.line(2)
	var classes []message.Class
	nodes[0].Subscribe(surveillanceInterest(), func(m *message.Message) {
		classes = append(classes, m.Class)
	})
	pub := nodes[1].Publish(surveillancePublication())
	// Space the sends so the reinforcement triggered by the first
	// exploratory message establishes the high-rate path before plain data
	// follows (back-to-back sends would be dropped: no reinforced
	// gradient exists yet, which is faithful diffusion behaviour).
	for i := 0; i < 10; i++ {
		i := i
		tn.s.After(time.Second+time.Duration(i)*500*time.Millisecond, func() {
			nodes[1].Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, int32(i))})
		})
	}
	tn.s.RunUntil(10 * time.Second)
	if len(classes) != 10 {
		t.Fatalf("delivered %d of 10", len(classes))
	}
	// ExploratoryEvery=5: messages 0 and 5 are exploratory.
	exp := 0
	for _, c := range classes {
		if c == message.ExploratoryData {
			exp++
		}
	}
	if exp != 2 {
		t.Errorf("%d exploratory messages, want 2", exp)
	}
}

func TestReceiveGarbage(t *testing.T) {
	tn := newTestNet(14)
	n := tn.addNode(1, nil)
	n.Receive(2, []byte{1, 2, 3})
	n.Receive(2, nil)
	tn.s.RunUntil(time.Second)
	// Must not panic or create state, and must not vanish without a trace.
	if n.Entries() != 0 {
		t.Error("garbage must not create entries")
	}
	if n.Stats.ReceiveMalformed != 2 {
		t.Errorf("ReceiveMalformed = %d, want 2", n.Stats.ReceiveMalformed)
	}
	reg := telemetry.NewRegistry("node1")
	n.Instrument(reg)
	if got := reg.Snapshot()["core.receive_malformed"]; got != 2 {
		t.Errorf("core.receive_malformed = %v, want 2", got)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("missing Link must panic")
		}
	}()
	NewNode(Config{Clock: sim.New(1), Rand: sim.New(1).Rand()})
}

func TestCloseCancelsTimers(t *testing.T) {
	tn := newTestNet(15)
	nodes := tn.line(2)
	nodes[0].Subscribe(surveillanceInterest(), nil)
	tn.s.RunUntil(time.Second)
	sent := nodes[0].Stats.SentByClass[message.Interest]
	nodes[0].Close()
	tn.s.RunUntil(5 * time.Minute)
	if nodes[0].Stats.SentByClass[message.Interest] != sent {
		t.Error("Close must stop interest refreshes")
	}
}
