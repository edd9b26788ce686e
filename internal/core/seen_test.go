package core

import (
	"math/rand"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/message"
)

// seenAt returns a new cache whose first record is the first of start's
// chunk: a cache is born at record 0, on a chunk boundary.
func seenAt(start uint32) *seenCache {
	start &^= seenChunkLen - 1
	return &seenCache{max: seenMax, head: start, tail: start,
		gone: func(message.ID, bool) {}}
}

// longestChain walks every bucket of c.
func longestChain(c *seenCache) int {
	longest := 0
	for _, s := range c.buckets {
		n := 0
		for ; s-c.head < c.tail-c.head; n++ {
			k, i := c.rec(s)
			s = k.next[i]
		}
		longest = max(longest, n)
	}
	return longest
}

// seenOps drives c and the map it replaced through the steps ops encodes,
// two bytes each, and fails at the first step they disagree on: what add
// and has report, which IDs a sweep reports gone, how many IDs are held.
// Three origins issue IDs, the third at the given stride; the clock never
// runs backwards.
func seenOps(t testing.TB, c *seenCache, stride uint32, ops []byte) {
	t.Helper()
	const ttl = time.Second
	type stamp = time.Duration
	origins := [3]uint32{7, 0xdeadbeef, 0x9e3779b9}
	strides := [3]uint32{1, 1, stride}
	var (
		oracle = map[message.ID]stamp{} // the cache's previous form
		gone   = map[message.ID]bool{}
		issued = []message.ID{{RandID: origins[0]}}
		next   [3]uint32
		now    time.Duration
	)
	c.gone = func(id message.ID, evicted bool) {
		if evicted || gone[id] {
			t.Fatalf("%v left the cache: evicted %v, already reported %v", id, evicted, gone[id])
		}
		gone[id] = true
	}
	add := func(step int, id message.ID) {
		_, present := oracle[id]
		if fresh := c.add(id, now); fresh == present {
			t.Fatalf("step %d: add(%v) = %v with the ID present: %v", step, id, fresh, present)
		}
		if !present {
			oracle[id] = now
		}
	}
	has := func(step int, id message.ID) {
		if _, want := oracle[id]; c.has(id) != want {
			t.Fatalf("step %d: has(%v) = %v, want %v", step, id, !want, want)
		}
	}
	for step := 0; 2*step+1 < len(ops); step++ {
		op, arg := ops[2*step]%8, int(ops[2*step+1])
		recent := issued[max(0, len(issued)-1-arg)]
		switch op {
		case 0, 1, 2:
			next[op] += strides[op]
			id := message.ID{RandID: origins[op], PktNum: next[op]}
			issued = append(issued, id)
			add(step, id)
		case 3:
			c.mark(recent, now)
			oracle[recent] = now
			has(step, recent)
		case 4:
			add(step, recent)
		case 5:
			has(step, issued[arg*len(issued)/256])
			has(step, recent)
			has(step, message.ID{RandID: 1, PktNum: uint32(arg)})
		case 6:
			now += time.Duration(arg&0x1f) * time.Millisecond
		case 7:
			clear(gone)
			c.expire(now, ttl)
			for id, at := range oracle {
				if now-at > ttl {
					if !gone[id] {
						t.Fatalf("step %d: the sweep at %v kept %v, stamped %v", step, now, id, at)
					}
					delete(oracle, id)
					delete(gone, id)
				}
			}
			for id := range gone {
				t.Fatalf("step %d: the sweep at %v dropped %v, stamped %v", step, now, id, oracle[id])
			}
		}
		if c.live != len(oracle) {
			t.Fatalf("step %d (op %d): %d IDs held, the map holds %d", step, op, c.live, len(oracle))
		}
	}
	for _, id := range issued {
		has(len(ops)/2, id)
	}
}

func TestSeenCacheMatchesMap(t *testing.T) {
	scattered := 0
	for seed := int64(0); seed < 60; seed++ {
		ops := make([]byte, 2*5000)
		rand.New(rand.NewSource(seed)).Read(ops)
		// A third of the runs cross the record-number wrap, a third the
		// half-lap rebuild; every other one has a strided origin.
		c := seenAt([]uint32{0, 1<<31 - 700, -700 & (1<<32 - 1)}[seed%3])
		stride := []uint32{1, 64}[seed%2]
		seenOps(t, c, stride, ops)
		if c.scattered {
			scattered++
			if stride == 1 {
				t.Errorf("seed %d: sequential origins and refreshes scattered the cache", seed)
			}
		}
	}
	if scattered == 0 {
		t.Error("no run scattered: the seeded placement went unexercised")
	}
}

// FuzzSeenCache is TestSeenCacheMatchesMap with the fuzzer choosing the
// steps, the third origin's stride and the first record number. The seed
// corpus is the files under testdata/fuzz/FuzzSeenCache, named for what
// each one does.
func FuzzSeenCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, start, stride uint32, ops []byte) {
		seenOps(t, seenAt(start), stride, ops)
	})
}

// One origin's consecutive packets sit in consecutive buckets, one a
// chain; the same count at stride 4096 lands in 32 buckets, so the cache
// scatters and its chains are those of a random placement.
func TestSeenCacheStride(t *testing.T) {
	for _, tc := range []struct {
		stride    uint32
		scattered bool
		longest   int
	}{{1, false, 1}, {4096, true, seenChainMax - 1}} {
		c := seenAt(0)
		for i := uint32(1); i <= 100_000; i++ {
			if !c.add(message.ID{RandID: 0xc0ffee, PktNum: i * tc.stride}, 0) {
				t.Fatalf("stride %d: packet %d reported present", tc.stride, i)
			}
		}
		if got := longestChain(c); c.scattered != tc.scattered || got > tc.longest {
			t.Errorf("stride %d: scattered %v, longest chain %d; want %v and at most %d",
				tc.stride, c.scattered, got, tc.scattered, tc.longest)
		}
		for i := uint32(1); i <= 100_000; i++ {
			if !c.has(message.ID{RandID: 0xc0ffee, PktNum: i * tc.stride}) {
				t.Fatalf("stride %d: packet %d lost", tc.stride, i)
			}
		}
	}
}

// Record numbers wrap after 2³² insertions; nothing may be lost or come
// back when the live window straddles the wrap.
func TestSeenCacheSequenceWrap(t *testing.T) {
	const n = 10_000
	c := seenAt(-100 & (1<<32 - 1)) // starts at 2³²-128
	var gone []message.ID
	c.gone = func(id message.ID, _ bool) { gone = append(gone, id) }
	id := func(i int) message.ID { return message.ID{RandID: 5, PktNum: uint32(i)} }
	for i := 0; i < n; i++ {
		c.add(id(i), time.Duration(i))
	}
	if c.tail != n-128 || c.live != n {
		t.Fatalf("tail %d, %d IDs held after %d pushes from 2³²-128", c.tail, c.live, n)
	}
	for sweep, kept := range []int{n / 2, n} {
		// IDs stamped before kept expire in this sweep.
		gone = gone[:0]
		c.expire(time.Duration(kept), 0)
		first := []int{0, n / 2}[sweep]
		if len(gone) != kept-first || gone[0] != id(first) || gone[len(gone)-1] != id(kept-1) {
			t.Fatalf("sweep %d reported %d IDs gone, want %v … %v", sweep, len(gone), id(first), id(kept-1))
		}
		for i := 0; i < n; i++ {
			if c.has(id(i)) != (i >= kept) {
				t.Fatalf("after sweep %d: has(%v) = %v", sweep, id(i), i < kept)
			}
		}
	}
	if c.live != 0 || c.head != c.tail {
		t.Errorf("%d IDs, records [%d, %d) left after the last sweep", c.live, c.head, c.tail)
	}
}

// A full cache drops its oldest ID to admit a new one, counts it, and
// drops the reinforcement trace with it.
func TestSeenCacheEvictsOldestWhenFull(t *testing.T) {
	n := newTestNet(1).addNode(1, nil)
	n.seen.max = 8
	id := func(i int) message.ID { return message.ID{RandID: 9, PktNum: uint32(i)} }
	for i := 0; i < 12; i++ {
		n.markSeen(id(i))
		put(&n.expFrom, id(i), 2)
	}
	if n.Stats.SeenEvicted != 4 || n.SeenSize() != 8 || n.ExpFromSize() != 8 {
		t.Fatalf("%d evicted, %d IDs and %d traces held; want 4, 8, 8",
			n.Stats.SeenEvicted, n.SeenSize(), n.ExpFromSize())
	}
	for i := 0; i < 12; i++ {
		if _, traced := n.expFrom[id(i)]; n.seen.has(id(i)) != (i >= 4) || traced != (i >= 4) {
			t.Errorf("ID %d: present %v, traced %v", i, i < 4, traced)
		}
	}
	// Refreshing the oldest ID of a full cache supersedes its record: the
	// room is made by dropping that, not an ID.
	n.markSeen(id(4))
	if n.Stats.SeenEvicted != 4 || n.SeenSize() != 8 || !n.seen.has(id(4)) {
		t.Errorf("after a refresh: %d evicted, %d IDs held, ID 4 present %v; want 4, 8, true",
			n.Stats.SeenEvicted, n.SeenSize(), n.seen.has(id(4)))
	}
}

// expFrom is keyed by exploratory message IDs and seenGone deletes each
// with its seen-cache record, so the cache's live count bounds it. Drive
// exploratory data through a diamond (sink 1, relays 2 and 3, source 4),
// every message exploratory, and hold the bound at every node each second;
// once the source stops, the traces must drain to nothing with the IDs.
func TestExpFromBoundedBySeenCache(t *testing.T) {
	tn := newTestNet(11)
	every := func(c *Config) { c.ExploratoryEvery = 1 }
	nodes := []*Node{tn.addNode(1, every), tn.addNode(2, every), tn.addNode(3, every), tn.addNode(4, every)}
	tn.connect(1, 2)
	tn.connect(1, 3)
	tn.connect(2, 4)
	tn.connect(3, 4)
	nodes[0].Subscribe(surveillanceInterest(), nil)
	pub := nodes[3].Publish(surveillancePublication())
	const sending = 5 * time.Minute
	var seq int32
	peak := 0
	tn.s.Every(time.Second, time.Second, func() {
		if tn.s.Now() <= sending {
			seq++
			nodes[3].Send(pub, attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)})
		}
		for _, n := range nodes {
			if n.ExpFromSize() > n.SeenSize() {
				t.Fatalf("t=%v node %d: %d exploratory traces, %d IDs in the seen cache",
					tn.s.Now(), n.ID(), n.ExpFromSize(), n.SeenSize())
			}
			peak = max(peak, n.ExpFromSize())
		}
	})
	tn.s.RunUntil(sending + 2*nodes[0].cfg.SeenTTL)
	if peak == 0 {
		t.Fatal("no exploratory data was traced")
	}
	for _, n := range nodes {
		if n.ExpFromSize() != 0 {
			t.Errorf("node %d keeps %d exploratory traces after their IDs expired", n.ID(), n.ExpFromSize())
		}
	}
}
