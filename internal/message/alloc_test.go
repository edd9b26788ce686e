//go:build !race

package message

import (
	"testing"

	"diffusion/internal/attr"
)

// benchEvent is the shape of cmd/diffbench's event: two strings, two
// integers and a blob.
func benchEvent() *Message {
	return &Message{
		Class: Data, ID: ID{RandID: 0xDEADBEEF, PktNum: 7}, PrevHop: 2, NextHop: 3, HopCount: 1,
		Attrs: attr.Vec{
			attr.StringAttr(attr.KeyType, attr.IS, "diffbench"),
			attr.StringAttr(attr.KeyTask, attr.IS, "bench/line"),
			attr.Int32Attr(attr.KeySequence, attr.IS, 12345),
			attr.BlobAttr(attr.KeyPayload, attr.IS, make([]byte, 32)),
			attr.ClassIsData(),
		},
	}
}

// The decode budget: the message, its vector and one arena, however many
// strings and blobs it carries. Decoding in place into a message that has
// held one of the same shape, validating without decoding, and encoding into
// a caller's buffer are free.
func TestAllocsUnmarshalMarshal(t *testing.T) {
	m := benchEvent()
	b := m.Marshal()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Unmarshal(b); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("Unmarshal allocates %.0f/op, budget 3", n)
	}
	var warm Message
	if n := testing.AllocsPerRun(100, func() {
		if err := UnmarshalView(&warm, b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("UnmarshalView into a warm message allocates %.0f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := Check(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Check allocates %.0f/op", n)
	}
	buf := make([]byte, 0, m.Size())
	if n := testing.AllocsPerRun(100, func() { buf = m.AppendMarshal(buf[:0]) }); n != 0 {
		t.Errorf("AppendMarshal into a sized buffer allocates %.0f/op", n)
	}
}
