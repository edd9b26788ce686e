//go:build !race

package core

import (
	"testing"

	"diffusion/internal/attr"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// countLink is a Link that counts what it is handed and keeps none of it.
type countLink struct {
	id           uint32
	sends, bytes int
}

func (l *countLink) ID() uint32 { return l.id }
func (l *countLink) Send(_ uint32, payload []byte) error {
	l.sends++
	l.bytes += len(payload)
	return nil
}

// The relay budget: reinforced plain Data passing through a node costs the
// three decode objects and nothing else — match, forward and marshal add
// none. Node 2 relays from source 1 to sink 3.
func TestAllocsRelayReceive(t *testing.T) {
	s := sim.New(1)
	link := &countLink{id: 2}
	n := NewNode(Config{Clock: s, Rand: s.Rand(), Link: link})
	defer n.Close()

	interest := &message.Message{
		Class: message.Interest, ID: message.ID{RandID: 3, PktNum: 1}, PrevHop: 3, NextHop: message.Broadcast,
		Attrs: attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "bench/line"), attr.ClassIsInterest()},
	}
	n.Receive(3, interest.Marshal())
	ev := message.Message{
		Class: message.ExploratoryData, ID: message.ID{RandID: 1, PktNum: 1}, PrevHop: 1, NextHop: message.Broadcast,
		Attrs: attr.Vec{
			attr.StringAttr(attr.KeyType, attr.IS, "diffbench"),
			attr.StringAttr(attr.KeyTask, attr.IS, "bench/line"),
			attr.Int32Attr(attr.KeySequence, attr.IS, 12345),
			attr.BlobAttr(attr.KeyPayload, attr.IS, make([]byte, 32)),
			attr.ClassIsData(),
		},
	}
	n.Receive(1, ev.Marshal())
	n.Receive(3, (&message.Message{
		Class: message.PositiveReinforcement, ID: ev.ID, PrevHop: 3, NextHop: 2, Attrs: interest.Attrs,
	}).Marshal())

	ev.Class, ev.NextHop = message.Data, 2
	var wire []byte
	before := link.sends
	const runs = 200
	got := testing.AllocsPerRun(runs, func() {
		ev.ID.PktNum++ // a new event each time, or the duplicate cache stops it
		wire = ev.AppendMarshal(wire[:0])
		n.Receive(1, wire)
	})
	if forwarded := link.sends - before; forwarded != runs+1 {
		t.Fatalf("relay forwarded %d of %d events: the reinforced path is not set up", forwarded, runs+1)
	}
	if got > 3 {
		t.Errorf("relaying one reinforced Data allocates %.0f/op, budget 3 (the decode)", got)
	}
}
