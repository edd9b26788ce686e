package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestMeshDeliversAlongAdjacency(t *testing.T) {
	m := NewMesh(1)
	defer m.Close()
	c1, c2, c3 := &collector{}, &collector{}, &collector{}
	l1 := m.Attach(1, c1.deliver)
	m.Attach(2, c2.deliver)
	m.Attach(3, c3.deliver)
	m.Connect(1, 2)
	m.Connect(2, 3)

	// Broadcast from 1 reaches only its neighbor 2, not 3.
	if err := l1.Send(Broadcast, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c2.count() == 1 }, "broadcast delivery")
	if got, from := c2.snapshot(); got[0] != "hello" || from[0] != 1 {
		t.Fatalf("node 2 got %v from %v", got, from)
	}
	if c3.count() != 0 {
		t.Fatal("broadcast must not skip hops")
	}

	// Unicast to a non-neighbor errors; to a neighbor delivers.
	if err := l1.Send(3, []byte("skip")); err == nil {
		t.Fatal("unicast across two hops must error")
	}
	if err := l1.Send(2, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c2.count() == 2 }, "unicast delivery")
	if l1.Stats().Sent.Load() != 2 || l1.Stats().SendErrors.Load() != 1 {
		t.Fatalf("accounting: %d sent %d errors, want 2/1",
			l1.Stats().Sent.Load(), l1.Stats().SendErrors.Load())
	}
}

func TestMeshLoss(t *testing.T) {
	m := NewMesh(3)
	defer m.Close()
	m.Loss = 1.0
	c2 := &collector{}
	l1 := m.Attach(1, (&collector{}).deliver)
	m.Attach(2, c2.deliver)
	m.Connect(1, 2)
	for i := 0; i < 10; i++ {
		if err := l1.Send(2, []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	if c2.count() != 0 || l1.Stats().LossInjected.Load() != 10 {
		t.Fatalf("loss=1.0: delivered %d, accounted %d",
			c2.count(), l1.Stats().LossInjected.Load())
	}
}

func TestMeshCopiesPayloadPerReceiver(t *testing.T) {
	m := NewMesh(5)
	defer m.Close()
	var mu sync.Mutex
	var got []byte
	l1 := m.Attach(1, nil)
	m.Attach(2, func(from uint32, p []byte) {
		mu.Lock()
		got = p
		mu.Unlock()
	})
	m.Connect(1, 2)
	buf := []byte("mutate-me")
	if err := l1.Send(2, buf); err != nil {
		t.Fatal(err)
	}
	// Send copies the payload synchronously, so mutating after return is
	// safe even though delivery is queued.
	buf[0] = 'X'
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got != nil
	}, "queued delivery")
	mu.Lock()
	defer mu.Unlock()
	if string(got) != "mutate-me" {
		t.Fatalf("receiver saw sender's mutation: %q", got)
	}
}

// TestMeshQueueOverflowCountsDrops wedges a receiver's delivery callback
// and overflows its bounded queue: the mesh must drop (not buffer or
// spawn) and account the drops in the receiver's stats.
func TestMeshQueueOverflowCountsDrops(t *testing.T) {
	m := NewMesh(9)
	m.QueueLimit = 4
	defer m.Close()
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	l1 := m.Attach(1, nil)
	l2 := m.Attach(2, func(from uint32, p []byte) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	})
	m.Connect(1, 2)

	// First send occupies the delivery goroutine; wait until it is wedged
	// inside the callback so queue occupancy is deterministic.
	if err := l1.Send(2, []byte("wedge")); err != nil {
		t.Fatal(err)
	}
	<-entered
	// Four more fill the queue; everything beyond overflows.
	const extra = 10
	for i := 0; i < extra; i++ {
		if err := l1.Send(2, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := l2.Stats().QueueDrops.Load(), uint64(extra-m.QueueLimit); got != want {
		t.Fatalf("queue drops = %d, want %d", got, want)
	}
	close(release)
}

// TestMeshCloseStopsDeliveryGoroutines checks Close reaps every per-link
// delivery goroutine and that sends after Close fail cleanly.
func TestMeshCloseStopsDeliveryGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewMesh(11)
	links := make([]*MeshLink, 8)
	for i := range links {
		links[i] = m.Attach(uint32(i+1), (&collector{}).deliver)
		if i > 0 {
			m.Connect(uint32(i), uint32(i+1))
		}
	}
	if err := links[0].Send(Broadcast, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close() // idempotent
	if err := links[0].Send(2, []byte("late")); err != ErrClosed {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, n)
	}
}
