package core

import (
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/message"
)

func dataAttrs(seq int32) attr.Vec {
	return attr.Vec{
		attr.ClassIsData(),
		attr.StringAttr(attr.KeyTask, attr.IS, "surveillance"),
		attr.Int32Attr(attr.KeySequence, attr.IS, seq),
	}
}

func filterPattern() attr.Vec {
	return attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "surveillance")}
}

func TestFilterInterceptsAndConsumes(t *testing.T) {
	tn := newTestNet(20)
	nodes := tn.line(3)
	relay := nodes[1]

	var delivered int
	nodes[0].Subscribe(surveillanceInterest(), func(*message.Message) { delivered++ })

	// A consuming filter on the relay: swallow all matching data.
	var swallowed int
	relay.AddFilter(filterPattern(), 10, func(m *message.Message, h FilterHandle) {
		if m.IsData() {
			swallowed++
			return // consumed: never reaches the core
		}
		relay.SendMessageToNext(m, h)
	})

	pub := nodes[2].Publish(surveillancePublication())
	tn.s.Every(2*time.Second, time.Second, func() { nodes[2].Send(pub, nil) })
	tn.s.RunUntil(10 * time.Second)

	if swallowed == 0 {
		t.Fatal("filter never triggered")
	}
	if delivered != 0 {
		t.Errorf("consumed data still delivered %d times", delivered)
	}
}

func TestFilterPassThroughPreservesDelivery(t *testing.T) {
	tn := newTestNet(21)
	nodes := tn.line(3)
	relay := nodes[1]

	var observed, delivered int
	relay.AddFilter(filterPattern(), 10, func(m *message.Message, h FilterHandle) {
		observed++
		relay.SendMessageToNext(m, h)
	})
	nodes[0].Subscribe(surveillanceInterest(), func(*message.Message) { delivered++ })
	pub := nodes[2].Publish(surveillancePublication())
	tn.s.Every(2*time.Second, time.Second, func() { nodes[2].Send(pub, nil) })
	tn.s.RunUntil(10 * time.Second)

	if observed == 0 || delivered == 0 {
		t.Fatalf("observed=%d delivered=%d; pass-through must not break diffusion",
			observed, delivered)
	}
}

func TestFilterPriorityOrder(t *testing.T) {
	tn := newTestNet(22)
	n := tn.addNode(1, nil)

	var order []string
	n.AddFilter(filterPattern(), 5, func(m *message.Message, h FilterHandle) {
		order = append(order, "low")
		n.SendMessageToNext(m, h)
	})
	n.AddFilter(filterPattern(), 20, func(m *message.Message, h FilterHandle) {
		order = append(order, "high")
		n.SendMessageToNext(m, h)
	})
	n.AddFilter(filterPattern(), 20, func(m *message.Message, h FilterHandle) {
		order = append(order, "high2")
		n.SendMessageToNext(m, h)
	})

	n.Receive(2, (&message.Message{
		Class: message.Data,
		ID:    message.ID{RandID: 1, PktNum: 1},
		Attrs: dataAttrs(1),
	}).Marshal())
	tn.s.RunUntil(time.Second)

	want := []string{"high", "high2", "low"}
	if len(order) != 3 {
		t.Fatalf("chain ran %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("chain order %v, want %v", order, want)
		}
	}
}

func TestFilterMatchingSelectivity(t *testing.T) {
	tn := newTestNet(23)
	n := tn.addNode(1, nil)
	var hits int
	n.AddFilter(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "other")}, 10,
		func(m *message.Message, h FilterHandle) {
			hits++
			n.SendMessageToNext(m, h)
		})
	n.Receive(2, (&message.Message{
		Class: message.Data,
		ID:    message.ID{RandID: 2, PktNum: 1},
		Attrs: dataAttrs(1),
	}).Marshal())
	tn.s.RunUntil(time.Second)
	if hits != 0 {
		t.Error("filter must not trigger on non-matching task")
	}
}

func TestFilterSeesLocallyOriginatedMessages(t *testing.T) {
	// The chain runs for locally originated interests and data too, so
	// in-network processing can act at the edge nodes.
	tn := newTestNet(24)
	nodes := tn.line(2)
	var classes []message.Class
	nodes[0].AddFilter(nil, 10, func(m *message.Message, h FilterHandle) {
		classes = append(classes, m.Class)
		nodes[0].SendMessageToNext(m, h)
	})
	nodes[0].Subscribe(surveillanceInterest(), nil)
	tn.s.RunUntil(2 * time.Second)
	found := false
	for _, c := range classes {
		if c == message.Interest {
			found = true
		}
	}
	if !found {
		t.Errorf("filter should see the locally originated interest: %v", classes)
	}
}

func TestRemoveFilter(t *testing.T) {
	tn := newTestNet(25)
	n := tn.addNode(1, nil)
	hits := 0
	h := n.AddFilter(filterPattern(), 10, func(m *message.Message, fh FilterHandle) {
		hits++
		n.SendMessageToNext(m, fh)
	})
	if len(n.filters) != 1 {
		t.Fatal("filter count")
	}
	if err := n.RemoveFilter(h); err != nil {
		t.Fatal(err)
	}
	n.Receive(2, (&message.Message{
		Class: message.Data,
		ID:    message.ID{RandID: 3, PktNum: 1},
		Attrs: dataAttrs(1),
	}).Marshal())
	tn.s.RunUntil(time.Second)
	if hits != 0 {
		t.Error("removed filter must not run")
	}
}

func TestInjectMessage(t *testing.T) {
	// A filter-originated message behaves like a fresh local origination:
	// it gets an ID, traverses the chain, and the core floods it.
	tn := newTestNet(26)
	nodes := tn.line(2)
	// The tap supplies actuals for the interest's formals, as in the
	// paper's section 3.2 example of subscribing for subscriptions.
	var taps int
	nodes[1].Subscribe(attr.Vec{
		attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest),
		attr.StringAttr(attr.KeyTask, attr.IS, "surveillance"),
	}, func(*message.Message) { taps++ })

	nodes[0].InjectMessage(&message.Message{
		Class:   message.Interest,
		NextHop: message.Broadcast,
		Attrs: attr.Vec{
			attr.ClassIsInterest(),
			attr.StringAttr(attr.KeyTask, attr.EQ, "surveillance"),
		},
	})
	tn.s.RunUntil(2 * time.Second)
	if taps == 0 {
		t.Error("injected interest should flood to the neighbor")
	}
	if nodes[1].Entries() != 1 {
		t.Error("injected interest should set up gradients")
	}
}

func TestFilterValidation(t *testing.T) {
	tn := newTestNet(27)
	n := tn.addNode(1, nil)
	for name, fn := range map[string]func(){
		"zero priority": func() { n.AddFilter(nil, 0, func(*message.Message, FilterHandle) {}) },
		"nil callback":  func() { n.AddFilter(nil, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSendMessageToNextAfterRemoval(t *testing.T) {
	// A message in flight when its filter is removed still reaches the
	// core rather than vanishing.
	tn := newTestNet(28)
	nodes := tn.line(2)
	var delivered int
	nodes[0].Subscribe(surveillanceInterest(), func(*message.Message) { delivered++ })

	var h FilterHandle
	h = nodes[0].AddFilter(filterPattern(), 10, func(m *message.Message, fh FilterHandle) {
		nodes[0].RemoveFilter(h)
		nodes[0].SendMessageToNext(m, fh)
	})
	pub := nodes[1].Publish(surveillancePublication())
	tn.s.After(2*time.Second, func() { nodes[1].Send(pub, nil) })
	tn.s.RunUntil(5 * time.Second)
	if delivered != 1 {
		t.Errorf("delivered=%d, want 1", delivered)
	}
}

func TestProcessNoForward(t *testing.T) {
	// A filter that consumes interests and hands them to the core via
	// ProcessNoForward gets gradient setup and local delivery but no
	// re-flood.
	tn := newTestNet(29)
	nodes := tn.line(3)
	relay := nodes[1]
	relay.AddFilter(attr.Vec{
		attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest),
	}, 50, func(m *message.Message, h FilterHandle) {
		relay.ProcessNoForward(m)
	})
	nodes[0].Subscribe(surveillanceInterest(), nil)
	tn.s.RunUntil(5 * time.Second)

	// The relay absorbed the interest (gradient toward node 1) ...
	if relay.Entries() != 1 {
		t.Fatal("relay should hold the interest entry")
	}
	if r := firstEntry(relay).find(1); r == nil || !r.grad {
		t.Error("gradient toward the sink must exist")
	}
	// ... but never re-flooded it, so node 3 knows nothing.
	if relay.Stats.SentByClass[message.Interest] != 0 {
		t.Error("ProcessNoForward must suppress the re-flood")
	}
	if nodes[2].Entries() != 0 {
		t.Error("downstream node must not receive the scoped interest")
	}
}

func TestSendDirect(t *testing.T) {
	tn := newTestNet(30)
	nodes := tn.line(3)
	var got int
	nodes[2].Subscribe(attr.Vec{
		attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest),
		attr.StringAttr(attr.KeyTask, attr.IS, "direct"),
	}, func(*message.Message) { got++ })

	// Unicast an interest directly from node 2 to node 3, bypassing the
	// chain and core: node 3 processes it normally.
	nodes[1].SendDirect(&message.Message{
		Class:   message.Interest,
		NextHop: 3,
		Attrs: attr.Vec{
			attr.ClassIsInterest(),
			attr.StringAttr(attr.KeyTask, attr.EQ, "direct"),
		},
	})
	tn.s.RunUntil(2 * time.Second)
	if got != 1 {
		t.Errorf("direct unicast delivered %d times", got)
	}
	// Node 1 must not have heard the unicast.
	if nodes[0].Entries() != 0 {
		t.Error("unicast must not reach non-addressed neighbors")
	}
	if nodes[1].Stats.SentByClass[message.Interest] != 1 {
		t.Errorf("SendDirect accounting: %v", nodes[1].Stats.SentByClass)
	}
}
