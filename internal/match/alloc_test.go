//go:build !race

package match

import (
	"sort"
	"testing"

	"diffusion/internal/attr"
)

// TestAllocsMatchLookup: a warm Lookup allocates nothing on each of its
// paths — a plain data message, one that repeats a key (the dedup pass)
// and, in TwoWay mode, one that carries a formal (the reverse check).
func TestAllocsMatchLookup(t *testing.T) {
	ix := New(TwoWay)
	for i := 0; i < 1000; i++ {
		ix.Add(attr.Vec{
			attr.Int32Attr(attr.KeyTask, attr.EQ, int32(i)),
			attr.Float64Attr(attr.KeyConfidence, attr.GT, float64(i)/1000),
			attr.Int32Attr(attr.KeyClass, attr.IS, attr.ClassInterest),
		}, uint64(i))
	}
	ix.Add(attr.Vec{attr.Any(attr.KeyTask)}, 1000)
	task := func(v int32) attr.Attribute { return attr.Int32Attr(attr.KeyTask, attr.IS, v) }
	conf := attr.Float64Attr(attr.KeyConfidence, attr.IS, 0.9)
	for _, c := range []struct {
		name string
		msg  attr.Vec
		want []uint64
	}{
		{"data", attr.Vec{task(500), conf}, []uint64{500, 1000}},
		{"repeated key", attr.Vec{task(500), task(7), conf}, []uint64{7, 500, 1000}},
		{"formal", attr.Vec{task(500), conf, attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassInterest)}, []uint64{500}},
	} {
		dst := ix.Lookup(c.msg, make([]uint64, 0, 16)) // warm the scratch
		if allocs := testing.AllocsPerRun(100, func() { dst = ix.Lookup(c.msg, dst[:0]) }); allocs != 0 {
			t.Errorf("%s: Lookup allocates %v per op", c.name, allocs)
		}
		sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
		if !eqTags(dst, c.want) {
			t.Errorf("%s: lookup = %v, want %v", c.name, dst, c.want)
		}
	}
}
