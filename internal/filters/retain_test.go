package filters

import (
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/nettest"
)

// A filter borrows its message: usually the node's receive message, which
// the next reception overwrites and which is cleared once Receive returns,
// its values windows onto a payload the node was lent. Every filter here
// holds something past its call, so it clones it. These tests feed real wire
// receptions through core.Node.Receive, lent as the MAC lends them, and
// check that what each filter held or flushed is what arrived; each fails if
// the filter's own clone is taken out, or shares the payload's bytes.

const retained = 60

// reception is one message as it crossed the wire: the payload handed to
// Receive, and a copying decode of it.
type reception struct {
	wire []byte
	msg  *message.Message
}

// receive encodes one exploratory Data message per vector and hands each to
// n, a millisecond apart, as neighbor 5 sent it: in one buffer, overwritten
// with 0xDB once Receive returns.
func receive(t *testing.T, tn *nettest.Net, n *core.Node, vecs []attr.Vec, each func(reception)) []reception {
	t.Helper()
	var rs []reception
	var lent []byte
	for i, v := range vecs {
		wire := (&message.Message{
			Class:   message.ExploratoryData,
			ID:      message.ID{RandID: 5, PktNum: uint32(i + 1)},
			PrevHop: 5,
			NextHop: message.Broadcast,
			Attrs:   append(attr.Vec{attr.ClassIsData()}, v...),
		}).Marshal()
		msg, err := message.Unmarshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		tn.Sched.RunUntil(tn.Sched.Now() + time.Millisecond)
		lent = append(lent[:0], wire...)
		n.Receive(5, lent)
		for i := range lent {
			lent[i] = 0xDB
		}
		r := reception{wire, msg}
		if each != nil {
			each(r)
		}
		rs = append(rs, r)
	}
	return rs
}

// events returns one vector per event: task, sequence number i, and extra.
func events(task string, extra ...attr.Attribute) []attr.Vec {
	vecs := make([]attr.Vec, retained)
	for i := range vecs {
		vecs[i] = append(attr.Vec{
			attr.StringAttr(attr.KeyTask, attr.IS, task),
			attr.Int32Attr(attr.KeySequence, attr.IS, int32(i)),
			attr.StringAttr(attr.KeyInstance, attr.IS, string(rune('A'+i))),
		}, extra...)
	}
	return vecs
}

// strip removes the keys a filter rewrites.
func strip(v attr.Vec, keys ...attr.Key) attr.Vec {
	for _, k := range keys {
		v = v.Without(k)
	}
	return v
}

// sink collects copies of what n delivers locally for task.
func sink(n *core.Node, task string) *[]*message.Message {
	var got []*message.Message
	n.SubscribeLocal(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, task)},
		func(m *message.Message) { got = append(got, m.Clone()) })
	return &got
}

// checkFlushed requires one flushed message per reception, in order, equal
// to it but for the rewritten keys.
func checkFlushed(t *testing.T, got []*message.Message, rs []reception, rewritten ...attr.Key) {
	t.Helper()
	if len(got) != len(rs) {
		t.Fatalf("flushed %d messages for %d receptions", len(got), len(rs))
	}
	for i, r := range rs {
		if got[i].ID != r.msg.ID || !strip(got[i].Attrs, rewritten...).Equal(strip(r.msg.Attrs, rewritten...)) {
			t.Fatalf("flush %d is %v %v, received %v %v", i, got[i].ID, got[i].Attrs, r.msg.ID, r.msg.Attrs)
		}
	}
}

func TestCountingAggregatorFlushesWhatItReceived(t *testing.T) {
	tn := nettest.New(1)
	n := tn.AddNode(1, nil)
	c := NewCountingAggregator(n, tn.Sched, nil, time.Second, 0)
	got := sink(n, "count")
	rs := receive(t, tn, n, events("count"), nil)
	tn.Sched.RunUntil(tn.Sched.Now() + 2*time.Second)
	if c.Flushed != retained {
		t.Fatalf("flushed %d of %d events", c.Flushed, retained)
	}
	checkFlushed(t, *got, rs, attr.KeyCount)
}

func TestFusionFlushesWhatItReceived(t *testing.T) {
	tn := nettest.New(1)
	n := tn.AddNode(1, nil)
	f := NewFusion(n, tn.Sched, nil, time.Second)
	got := sink(n, "fuse")
	rs := receive(t, tn, n, events("fuse",
		attr.StringAttr(attr.KeyType, attr.IS, "seismic"),
		attr.Float64Attr(attr.KeyConfidence, attr.IS, 0.5)), nil)
	tn.Sched.RunUntil(tn.Sched.Now() + 2*time.Second)
	if f.Reports != retained {
		t.Fatalf("fused %d reports of %d events", f.Reports, retained)
	}
	checkFlushed(t, *got, rs, attr.KeyConfidence, attr.KeySubtype, attr.KeyCount)
	for _, m := range *got {
		if a, _ := m.Attrs.FindActual(attr.KeySubtype); a.Val.Str() != "seismic" {
			t.Fatalf("fused report names modalities %q, want \"seismic\"", a.Val.Str())
		}
	}
}

func TestCacheHoldsWhatItReceived(t *testing.T) {
	tn := nettest.New(1)
	n := tn.AddNode(1, nil)
	c := NewCache(n, tn.Sched, CacheOptions{})
	rs := receive(t, tn, n, events("cache", attr.StringAttr(attr.KeyType, attr.IS, "light")), nil)
	if len(c.entries) != retained {
		t.Fatalf("cached %d of %d readings", len(c.entries), retained)
	}
	for _, r := range rs {
		id, _ := cacheIdentity(r.msg.Attrs, c.identityKeys)
		if e := c.entries[id]; !e.attrs.Equal(r.msg.Attrs) {
			t.Fatalf("cache holds %v, received %v", e.attrs, r.msg.Attrs)
		}
	}
}

func TestTapHoldsWhatItReceived(t *testing.T) {
	tn := nettest.New(1)
	n := tn.AddNode(1, nil)
	tap := NewTap(n, nil, nil)
	check := func(r reception) {
		if tap.Last == nil || tap.Last.ID != r.msg.ID || !tap.Last.Attrs.Equal(r.msg.Attrs) {
			t.Fatalf("tap holds %v, received %v %v", tap.Last, r.msg.ID, r.msg.Attrs)
		}
	}
	rs := receive(t, tn, n, events("tap"), check)
	check(rs[len(rs)-1])
}
