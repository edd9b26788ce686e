package core

import (
	"math/rand"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/message"
)

// TestRandomizedChurn subjects random small networks to random
// subscribe/publish/send/unsubscribe/failure churn and checks the node
// invariants: no panics, duplicate suppression holds (no subscription sees
// the same message ID twice), and state does not leak after everything is
// torn down.
func TestRandomizedChurn(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		runChurn(t, seed)
	}
}

func runChurn(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tn := newTestNet(seed)
	n := r.Intn(5) + 3
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = tn.addNode(uint32(i+1), nil)
	}
	// Random connected topology: a spanning chain plus random extras.
	for i := 2; i <= n; i++ {
		tn.connect(uint32(i-1), uint32(i))
	}
	for i := 0; i < n; i++ {
		a, b := uint32(r.Intn(n)+1), uint32(r.Intn(n)+1)
		if a != b {
			tn.connect(a, b)
		}
	}

	tasks := []string{"alpha", "beta"}
	seen := map[SubscriptionHandle]map[message.ID]bool{}
	var subs []struct {
		node *Node
		h    SubscriptionHandle
	}
	var pubs []struct {
		node *Node
		h    PublicationHandle
		task string
	}

	// Random operations over 5 virtual minutes.
	for op := 0; op < 40; op++ {
		at := time.Duration(r.Intn(300)) * time.Second
		node := nodes[r.Intn(n)]
		task := tasks[r.Intn(len(tasks))]
		switch r.Intn(5) {
		case 0: // subscribe
			tn.s.After(at, func() {
				var h SubscriptionHandle
				rec := map[message.ID]bool{}
				h = node.Subscribe(attr.Vec{
					attr.StringAttr(attr.KeyTask, attr.EQ, task),
				}, func(m *message.Message) {
					if rec[m.ID] {
						t.Errorf("seed %d: subscription %d saw message %v twice", seed, h, m.ID)
					}
					rec[m.ID] = true
				})
				seen[h] = rec
				subs = append(subs, struct {
					node *Node
					h    SubscriptionHandle
				}{node, h})
			})
		case 1: // publish
			tn.s.After(at, func() {
				h := node.Publish(attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, task)})
				pubs = append(pubs, struct {
					node *Node
					h    PublicationHandle
					task string
				}{node, h, task})
			})
		case 2: // send on a random existing publication
			tn.s.After(at, func() {
				if len(pubs) == 0 {
					return
				}
				p := pubs[r.Intn(len(pubs))]
				_ = p.node.Send(p.h, attr.Vec{
					attr.Int32Attr(attr.KeySequence, attr.IS, int32(r.Intn(1000))),
				})
			})
		case 3: // unsubscribe a random subscription
			tn.s.After(at, func() {
				if len(subs) == 0 {
					return
				}
				i := r.Intn(len(subs))
				_ = subs[i].node.Unsubscribe(subs[i].h)
				subs = append(subs[:i], subs[i+1:]...)
			})
		case 4: // garbage from a phantom neighbor
			tn.s.After(at, func() {
				g := make([]byte, r.Intn(60))
				r.Read(g)
				node.Receive(uint32(r.Intn(n)+50), g)
			})
		}
	}
	tn.s.RunUntil(10 * time.Minute)

	// Tear everything down; entries must drain once gradients expire.
	for _, s := range subs {
		_ = s.node.Unsubscribe(s.h)
	}
	for _, p := range pubs {
		_ = p.node.Unpublish(p.h)
	}
	tn.s.RunUntil(30 * time.Minute)
	for i, node := range nodes {
		if node.Entries() != 0 {
			t.Errorf("seed %d: node %d retains %d entries after teardown",
				seed, i+1, node.Entries())
		}
	}
}

// TestSeenCacheBounded checks that the duplicate-suppression cache drains
// by TTL instead of growing without bound.
func TestSeenCacheBounded(t *testing.T) {
	tn := newTestNet(77)
	nodes := tn.line(2)
	nodes[0].Subscribe(surveillanceInterest(), nil)
	pub := nodes[1].Publish(surveillancePublication())
	seq := int32(0)
	tn.s.Every(time.Second, time.Second, func() {
		seq++
		nodes[1].Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
	})
	tn.s.RunUntil(20 * time.Minute)
	// SeenTTL is 2 minutes in the default config: the cache holds at most
	// a couple of minutes' worth of IDs, not 20 minutes' worth.
	if nodes[0].SeenSize() > 600 {
		t.Errorf("seen cache grew to %d entries", nodes[0].SeenSize())
	}
	if len(nodes[0].expFrom) > nodes[0].SeenSize() {
		t.Error("expFrom must not outlive the seen cache")
	}
}
