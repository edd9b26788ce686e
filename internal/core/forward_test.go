package core

import (
	"bytes"
	"slices"
	"testing"

	"diffusion/internal/attr"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// A relay re-floods each interest and exploratory message it sees first,
// after a random jitter, from a record pooled on the node. These tests hold
// the record to the copy it replaces; alloc_test.go holds its budget.

// keepLink keeps a copy of every payload it is handed.
type keepLink struct {
	id   uint32
	sent [][]byte
}

func (l *keepLink) ID() uint32 { return l.id }
func (l *keepLink) Send(_ uint32, payload []byte) error {
	l.sent = append(l.sent, bytes.Clone(payload))
	return nil
}

// floodWire is one flooded message arriving at relay 2 from a neighbor.
type floodWire struct {
	from uint32
	wire []byte
}

// floods are interests and exploratory data of different sizes, sampled
// and not, all of which relay 2 forwards once an interest has set up a
// gradient towards 3.
func floods() []floodWire {
	bigEvent := lineEvent.Clone()
	bigEvent[3] = attr.BlobAttr(attr.KeyPayload, attr.IS, bytes.Repeat([]byte{0xa5}, 300))
	wide := attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "bench/wide"),
		attr.Int32Attr(attr.KeyInterval, attr.IS, 250),
		attr.Float64Attr(attr.KeyConfidence, attr.GE, 0.5),
		attr.ClassIsInterest(),
	}
	msgs := []struct {
		from uint32
		m    message.Message
	}{
		{3, message.Message{Class: message.Interest, ID: message.ID{RandID: 3, PktNum: 1}, Attrs: lineInterest}},
		{1, message.Message{Class: message.ExploratoryData, ID: message.ID{RandID: 1, PktNum: 1}, HopCount: 4, Attrs: lineEvent}},
		{4, message.Message{Class: message.Interest, ID: message.ID{RandID: 4, PktNum: 7}, HopCount: 2, Flow: 0x77, Attrs: wide}},
		{1, message.Message{Class: message.ExploratoryData, ID: message.ID{RandID: 1, PktNum: 2}, Flow: 0x31, Attrs: bigEvent}},
	}
	out := make([]floodWire, len(msgs))
	for i, w := range msgs {
		w.m.NextHop = message.Broadcast
		out[i] = floodWire{w.from, w.m.Marshal()}
	}
	return out
}

// cloneForward is the oracle: what relay 2 must send for w, built the way
// a forward used to be, from a Clone of the received message.
func cloneForward(t *testing.T, w floodWire) []byte {
	t.Helper()
	m, err := message.Unmarshal(w.wire)
	if err != nil {
		t.Fatal(err)
	}
	m.PrevHop = message.NodeID(w.from)
	fwd := m.Clone()
	fwd.HopCount++
	fwd.PrevHop, fwd.NextHop = 2, message.Broadcast
	return fwd.Marshal()
}

// forwardRelay is node 2 on its own Port.
func forwardRelay(t *testing.T, link Link) (*sim.Engine, *Node) {
	s := sim.New(1)
	p := s.Port(2)
	n := NewNode(Config{Clock: p, Rand: p.Rand(), Link: link})
	t.Cleanup(n.Close)
	return s, n
}

// checkIdle fails unless the node holds want idle forward records. (An idle
// record's attributes are windows onto its own buffer, so it pins no payload.)
func checkIdle(t *testing.T, n *Node, want int) {
	t.Helper()
	if len(n.fwdFree) != want {
		t.Fatalf("%d idle forward records, want %d", len(n.fwdFree), want)
	}
}

// Four forwards pending at once on one node, two interests and two
// exploratory messages, their messages decoded one after another into the
// one receive message from payloads lent in one buffer: each goes out as the
// bytes a Clone of its message would have made, and every record comes
// back. It fails if a record keeps windows onto the lent payload.
func TestPendingForwardsKeepTheirBytes(t *testing.T) {
	link := &keepLink{id: 2}
	s, n := forwardRelay(t, link)
	ws := floods()
	var want [][]byte
	var l lender
	for _, w := range ws {
		l.receive(n, w.from, w.wire)
		want = append(want, cloneForward(t, w))
	}
	if len(link.sent) != 0 || len(n.fwdFree) != 0 {
		t.Fatalf("%d sent and %d idle records before any jitter ran out", len(link.sent), len(n.fwdFree))
	}
	s.RunUntil(s.Now() + n.cfg.ForwardJitter)

	got := slices.Clone(link.sent)
	slices.SortFunc(got, bytes.Compare)
	slices.SortFunc(want, bytes.Compare)
	if !slices.EqualFunc(got, want, bytes.Equal) {
		t.Errorf("forwarded\n%x\nwant\n%x", got, want)
	}
	checkIdle(t, n, len(ws))
}

// A crash leaves pending forwards armed: they fire into a detached node,
// send nothing and return their records. After the restart a new flood is
// forwarded again, from a record that came back.
func TestPendingForwardsAcrossCrash(t *testing.T) {
	link := &keepLink{id: 2}
	s, n := forwardRelay(t, link)
	ws := floods()
	for _, w := range ws[:3] {
		n.Receive(w.from, w.wire)
	}
	n.Detach()
	s.RunUntil(s.Now() + n.cfg.ForwardJitter)
	if len(link.sent) != 0 {
		t.Fatalf("a detached node sent %d forwards", len(link.sent))
	}
	checkIdle(t, n, 3)

	n.Restart()
	n.Receive(ws[0].from, ws[0].wire)
	s.RunUntil(s.Now() + n.cfg.ForwardJitter)
	if len(link.sent) != 1 || !bytes.Equal(link.sent[0], cloneForward(t, ws[0])) {
		t.Fatalf("after the restart the node sent %x, want the one forward %x", link.sent, cloneForward(t, ws[0]))
	}
	checkIdle(t, n, 3)
}
