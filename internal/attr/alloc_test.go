//go:build !race

package attr

import "testing"

// Own copies a vector into storage of its own: from nothing it costs the
// vector and one buffer sized to it, and into a vector and buffer with room
// it costs nothing. The copy is equal to v and hashes the same, and it stays
// so once the bytes v's string and blob values are windows onto (here a
// lent payload) are overwritten.
func TestAllocsVecOwn(t *testing.T) {
	wire := Vec{
		Int32Attr(KeyClass, IS, ClassData),
		StringAttr(KeyTask, IS, "bench/line"),
		Float64Attr(KeyConfidence, GT, 0.85),
		BlobAttr(KeyPayload, IS, []byte{0, 1, 2, 254, 255}),
		StringAttr(KeyInstance, IS, "elephant"),
	}.AppendEncode(nil)
	want, _, err := DecodeVec(wire)
	if err != nil {
		t.Fatal(err)
	}
	v, _, _ := DecodeVecView(nil, wire)
	var own Vec
	var buf []byte
	if n := testing.AllocsPerRun(100, func() { own, buf = v.Own(nil, nil) }); n != 2 {
		t.Errorf("Own from nil allocates %.0f, want 2", n)
	}
	if n := testing.AllocsPerRun(100, func() { own, buf = v.Own(own, buf) }); n != 0 {
		t.Errorf("Own into a vector and buffer with room allocates %.0f, want 0", n)
	}
	if !own.Equal(v) || own.Hash() != v.Hash() {
		t.Fatalf("Own made %v (hash %#x) of %v (hash %#x)", own, own.Hash(), v, v.Hash())
	}
	for i := range wire {
		wire[i] = 0xDB
	}
	if !own.Equal(want) || own.Hash() != want.Hash() {
		t.Errorf("with v's bytes overwritten the copy reads %v, want %v", own, want)
	}
}
