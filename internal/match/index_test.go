package match

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"diffusion/internal/attr"
)

// lookupTags runs a lookup and returns sorted tags.
func lookupTags(ix *Index, msg attr.Vec) []uint64 {
	out := ix.Lookup(msg, nil)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func eqTags(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestIndexEQBuckets(t *testing.T) {
	ix := New(TwoWay)
	for i := uint64(1); i <= 5; i++ {
		ix.Add(attr.Vec{attr.Int32Attr(attr.KeyTask, attr.EQ, int32(i))}, i)
	}
	msg := attr.Vec{attr.Int32Attr(attr.KeyTask, attr.IS, 3)}
	if got := lookupTags(ix, msg); !eqTags(got, []uint64{3}) {
		t.Fatalf("EQ bucket lookup = %v", got)
	}
	// A cross-width numeric equal must land in the same bucket.
	msgF := attr.Vec{attr.Float64Attr(attr.KeyTask, attr.IS, 3.0)}
	if got := lookupTags(ix, msgF); !eqTags(got, []uint64{3}) {
		t.Fatalf("cross-width EQ = %v", got)
	}
	if ix.Keys() != 1 || ix.Len() != 5 {
		t.Fatalf("Keys=%d Len=%d", ix.Keys(), ix.Len())
	}
}

func TestIndexRanges(t *testing.T) {
	ix := New(TwoWay)
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.GT, 0.5)}, 1)
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.GE, 0.7)}, 2)
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.LT, 0.7)}, 3)
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.LE, 0.6)}, 4)
	cases := []struct {
		v    float64
		want []uint64
	}{
		{0.4, []uint64{3, 4}},
		{0.6, []uint64{1, 3, 4}},
		{0.7, []uint64{1, 2}},
		{0.9, []uint64{1, 2}},
	}
	for _, c := range cases {
		msg := attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.IS, c.v)}
		if got := lookupTags(ix, msg); !eqTags(got, c.want) {
			t.Errorf("v=%v: got %v want %v", c.v, got, c.want)
		}
	}
}

func TestIndexStringRanges(t *testing.T) {
	ix := New(TwoWay)
	ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.GE, "m")}, 1)
	ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.LT, "m")}, 2)
	msg := attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "alpha")}
	if got := lookupTags(ix, msg); !eqTags(got, []uint64{2}) {
		t.Fatalf("string range = %v", got)
	}
}

func TestIndexEQAnyAndNE(t *testing.T) {
	ix := New(TwoWay)
	ix.Add(attr.Vec{attr.Any(attr.KeyTask)}, 1)
	ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.NE, "x")}, 2)
	if got := lookupTags(ix, attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "y")}); !eqTags(got, []uint64{1, 2}) {
		t.Fatalf("ne/any = %v", got)
	}
	if got := lookupTags(ix, attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "x")}); !eqTags(got, []uint64{1}) {
		t.Fatalf("ne equal value = %v", got)
	}
	// NE across types holds: a blob actual satisfies a string NE formal.
	if got := lookupTags(ix, attr.Vec{attr.BlobAttr(attr.KeyTask, attr.IS, []byte("x"))}); !eqTags(got, []uint64{1, 2}) {
		t.Fatalf("ne cross-type = %v", got)
	}
}

func TestIndexNaNSemantics(t *testing.T) {
	nan := math.NaN()
	ix := New(TwoWay)
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.EQ, 5)}, 1)
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.LE, 3)}, 2)
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.LT, 3)}, 3)
	// NaN formals are unindexable: they match any numeric actual.
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.EQ, nan)}, 4)
	if ix.FallbackLen() != 1 {
		t.Fatalf("NaN formal must fall back, FallbackLen=%d", ix.FallbackLen())
	}
	// A NaN actual compares equal to everything: EQ/LE/GE hold, LT/GT fail.
	msg := attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.IS, nan)}
	if got := lookupTags(ix, msg); !eqTags(got, []uint64{1, 2, 4}) {
		t.Fatalf("NaN actual = %v", got)
	}
	// A plain actual still matches the NaN formal via the fallback list.
	msg2 := attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.IS, 7)}
	if got := lookupTags(ix, msg2); !eqTags(got, []uint64{4}) {
		t.Fatalf("actual vs NaN formal = %v", got)
	}
}

func TestIndexSignedZero(t *testing.T) {
	ix := New(TwoWay)
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyX, attr.EQ, math.Copysign(0, -1))}, 1)
	msg := attr.Vec{attr.Float64Attr(attr.KeyX, attr.IS, 0)}
	if got := lookupTags(ix, msg); !eqTags(got, []uint64{1}) {
		t.Fatalf("-0 formal vs +0 actual = %v", got)
	}
	msgNeg := attr.Vec{attr.Float64Attr(attr.KeyX, attr.IS, math.Copysign(0, -1))}
	if got := lookupTags(ix, msgNeg); !eqTags(got, []uint64{1}) {
		t.Fatalf("-0 actual = %v", got)
	}
}

func TestIndexBlobPivots(t *testing.T) {
	ix := New(TwoWay)
	ix.Add(attr.Vec{attr.BlobAttr(attr.KeyTarget, attr.EQ, []byte{1, 2})}, 1)
	ix.Add(attr.Vec{attr.BlobAttr(attr.KeyTarget, attr.GT, []byte{5})}, 2) // always list
	if ix.FallbackLen() != 1 {
		t.Fatalf("blob range must fall back, FallbackLen=%d", ix.FallbackLen())
	}
	msg := attr.Vec{attr.BlobAttr(attr.KeyTarget, attr.IS, []byte{1, 2})}
	if got := lookupTags(ix, msg); !eqTags(got, []uint64{1}) {
		t.Fatalf("blob EQ = %v", got)
	}
	msg2 := attr.Vec{attr.BlobAttr(attr.KeyTarget, attr.IS, []byte{9})}
	if got := lookupTags(ix, msg2); !eqTags(got, []uint64{2}) {
		t.Fatalf("blob GT = %v", got)
	}
}

func TestIndexTwoWayVerification(t *testing.T) {
	ix := New(TwoWay)
	// Stored vector has a formal the message's actuals satisfy, but the
	// message carries a formal the stored actuals cannot satisfy.
	ix.Add(attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "t"),
		attr.Int32Attr(attr.KeyClass, attr.IS, attr.ClassInterest),
	}, 1)
	msg := attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.IS, "t"),
		attr.Int32Attr(attr.KeyClass, attr.EQ, attr.ClassData),
	}
	if got := lookupTags(ix, msg); len(got) != 0 {
		t.Fatalf("two-way must reject: %v", got)
	}
	// OneWay mode ignores the message's formals.
	ox := New(OneWay)
	ox.Add(attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "t"),
		attr.Int32Attr(attr.KeyClass, attr.IS, attr.ClassInterest),
	}, 1)
	if got := lookupTags(ox, msg); !eqTags(got, []uint64{1}) {
		t.Fatalf("one-way = %v", got)
	}
}

func TestIndexNoFormalsAlwaysMatchesOneWay(t *testing.T) {
	ix := New(OneWay)
	ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "t")}, 7)
	ix.Add(nil, 8)
	if got := lookupTags(ix, attr.Vec{attr.Int32Attr(attr.KeyX, attr.IS, 1)}); !eqTags(got, []uint64{7, 8}) {
		t.Fatalf("formal-less stored vecs must match one-way: %v", got)
	}
	if ix.FallbackLen() != 2 {
		t.Fatalf("FallbackLen=%d", ix.FallbackLen())
	}
}

func TestIndexRemoveAndReuse(t *testing.T) {
	ix := New(TwoWay)
	h1 := ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "a")}, 1)
	h2 := ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "a")}, 2)
	ix.Add(attr.Vec{attr.Float64Attr(attr.KeyConfidence, attr.GT, 1)}, 3)
	msg := attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "a")}
	if got := lookupTags(ix, msg); !eqTags(got, []uint64{1, 2}) {
		t.Fatalf("before remove = %v", got)
	}
	ix.Remove(h1)
	ix.Remove(h1) // double remove is a no-op
	if got := lookupTags(ix, msg); !eqTags(got, []uint64{2}) {
		t.Fatalf("after remove = %v", got)
	}
	h3 := ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "a")}, 9)
	if h3 != h1 {
		t.Fatalf("freed handle not recycled: %v vs %v", h3, h1)
	}
	if got := lookupTags(ix, msg); !eqTags(got, []uint64{2, 9}) {
		t.Fatalf("after reuse = %v", got)
	}
	ix.Remove(h2)
	ix.Remove(h3)
	if ix.Len() != 1 {
		t.Fatalf("Len=%d", ix.Len())
	}
}

func TestIndexReset(t *testing.T) {
	ix := New(TwoWay)
	ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "a")}, 1)
	ix.Reset()
	if ix.Len() != 0 || ix.Keys() != 0 || ix.FallbackLen() != 0 {
		t.Fatal("reset must empty the index")
	}
	ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "a")}, 2)
	if got := lookupTags(ix, attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "a")}); !eqTags(got, []uint64{2}) {
		t.Fatalf("after reset = %v", got)
	}
}

func TestIndexDuplicateActualsDeduplicate(t *testing.T) {
	ix := New(TwoWay)
	ix.Add(attr.Vec{attr.Any(attr.KeyTask)}, 1)
	// Two actuals with the same key probe the same postings; the result
	// must still carry one tag.
	msg := attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.IS, "a"),
		attr.StringAttr(attr.KeyTask, attr.IS, "b"),
	}
	if got := lookupTags(ix, msg); !eqTags(got, []uint64{1}) {
		t.Fatalf("dedup = %v", got)
	}
}

func TestIndexStats(t *testing.T) {
	ix := New(TwoWay)
	ix.Add(attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "a")}, 1)
	ix.Add(nil, 2) // fallback
	ix.Lookup(attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "a")}, nil)
	st := ix.Stats()
	if st.Lookups != 1 {
		t.Errorf("Lookups=%d", st.Lookups)
	}
	if st.CandidatesScanned != 2 {
		t.Errorf("CandidatesScanned=%d", st.CandidatesScanned)
	}
	if st.FallbackScanned != 1 {
		t.Errorf("FallbackScanned=%d", st.FallbackScanned)
	}
	if st.Hits != 2 {
		t.Errorf("Hits=%d", st.Hits)
	}
}

// TestSlotHoldsNoPointers: a broker's slot array stays off the collector's
// scan list only while slot is pointer-free; a field that adds a pointer
// fails here by name.
func TestSlotHoldsNoPointers(t *testing.T) {
	var pointers func(reflect.Type) bool
	pointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if pointers(ty.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return ty.Len() > 0 && pointers(ty.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			return true
		}
		return false
	}
	ty := reflect.TypeOf(slot{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); pointers(f.Type) {
			t.Errorf("slot.%s (%v) holds a pointer", f.Name, f.Type)
		}
	}
}

func TestIndexLookupZeroAlloc(t *testing.T) {
	ix := New(TwoWay)
	for i := 0; i < 1000; i++ {
		ix.Add(attr.Vec{
			attr.Int32Attr(attr.KeyTask, attr.EQ, int32(i)),
			attr.Float64Attr(attr.KeyConfidence, attr.GT, float64(i)/1000),
		}, uint64(i))
	}
	msg := attr.Vec{
		attr.Int32Attr(attr.KeyTask, attr.IS, 500),
		attr.Float64Attr(attr.KeyConfidence, attr.IS, 0.9),
	}
	dst := make([]uint64, 0, 64)
	// Warm the scratch buffers.
	dst = ix.Lookup(msg, dst[:0])
	allocs := testing.AllocsPerRun(100, func() {
		dst = ix.Lookup(msg, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v per op", allocs)
	}
	if !eqTags(dst, []uint64{500}) {
		t.Fatalf("lookup = %v", dst)
	}
}
