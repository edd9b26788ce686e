package match

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"diffusion/internal/attr"
)

// Differential property test: over random attribute soups — including the
// nasty corners (NaN, signed zero, infinities, cross-type values, blobs,
// duplicate keys) — and random add/remove interleavings, the index must
// return exactly the tags the linear attr.Match/OneWayMatch scan returns.
// The oracle is the plain matcher; any divergence is an index bug.

// soupValue draws a random value biased toward collisions and edge cases.
func soupValue(r *rand.Rand) attr.Value {
	switch r.Intn(10) {
	case 0:
		return attr.Int32Value(int32(r.Intn(5) - 2))
	case 1:
		return attr.Int64Value(int64(r.Intn(7) - 3))
	case 2:
		return attr.Float32Value(float32(r.Intn(5)) / 2)
	case 3:
		switch r.Intn(5) {
		case 0:
			return attr.Float64Value(math.NaN())
		case 1:
			return attr.Float64Value(math.Copysign(0, -1))
		case 2:
			return attr.Float64Value(math.Inf(1))
		case 3:
			return attr.Float64Value(math.Inf(-1))
		default:
			return attr.Float64Value(float64(r.Intn(9)) / 4)
		}
	case 4, 5, 6:
		return attr.StringValue(string(rune('a' + r.Intn(4))))
	case 7:
		return attr.BlobValue([]byte{byte(r.Intn(3))})
	case 8:
		return attr.Float64Value(float64(r.Intn(3)))
	default:
		return attr.Int32Value(int32(r.Intn(3)))
	}
}

// soupVec draws a random attribute vector over a tiny key space so
// formals and actuals collide often.
func soupVec(r *rand.Rand, n int) attr.Vec {
	v := make(attr.Vec, 0, n)
	for i := 0; i < n; i++ {
		k := attr.Key(1 + r.Intn(5))
		op := attr.Op(r.Intn(8)) // IS..EQAny
		v = append(v, attr.Attribute{Key: k, Op: op, Val: soupValue(r)})
	}
	return v
}

// mirror is the linear reference the index is differentially tested
// against.
type mirror struct {
	mode Mode
	vecs map[uint64]attr.Vec
}

func (m *mirror) lookup(msg attr.Vec) []uint64 {
	var out []uint64
	for tag, v := range m.vecs {
		var ok bool
		if m.mode == TwoWay {
			ok = attr.Match(v, msg)
		} else {
			ok = attr.OneWayMatch(v, msg)
		}
		if ok {
			out = append(out, tag)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestDifferentialAgainstLinear(t *testing.T) {
	for _, mode := range []Mode{TwoWay, OneWay} {
		mode := mode
		name := map[Mode]string{TwoWay: "two-way", OneWay: "one-way"}[mode]
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 30; seed++ {
				r := rand.New(rand.NewSource(seed))
				ix := New(mode)
				ref := &mirror{mode: mode, vecs: map[uint64]attr.Vec{}}
				handles := map[uint64]Handle{}
				var tags []uint64
				nextTag := uint64(0)
				add := func() {
					v := soupVec(r, r.Intn(6))
					nextTag++
					handles[nextTag] = ix.Add(v, nextTag)
					ref.vecs[nextTag] = v
					tags = append(tags, nextTag)
				}
				remove := func() attr.Vec {
					i := r.Intn(len(tags))
					tag := tags[i]
					tags[i] = tags[len(tags)-1]
					tags = tags[:len(tags)-1]
					ix.Remove(handles[tag])
					v := ref.vecs[tag]
					delete(handles, tag)
					delete(ref.vecs, tag)
					return v
				}
				probe := func(msg attr.Vec, where string) {
					if got, want := lookupTags(ix, msg), ref.lookup(msg); !eqTags(got, want) {
						t.Fatalf("seed=%d %s msg=%v:\nindex  %v\nlinear %v", seed, where, msg, got, want)
					}
				}
				// Every stored vector probed against itself.
				probeStored := func(where string) {
					for _, v := range ref.vecs {
						probe(v, where)
					}
					if ix.Len() != len(ref.vecs) {
						t.Fatalf("seed=%d %s: Len=%d want %d", seed, where, ix.Len(), len(ref.vecs))
					}
				}

				for op := 0; op < 400; op++ {
					switch x := r.Intn(10); {
					case x < 5:
						add()
					case x < 7 && len(tags) > 0:
						remove()
					default:
						probe(soupVec(r, r.Intn(6)), fmt.Sprintf("op=%d", op))
					}
				}
				probeStored("self-probe")

				// Remove-heavy: drain with one add per three removes, so
				// handles are recycled; after every removal re-probe the
				// removed vector, random ones and stored ones.
				for removals := 0; len(tags) > 0; {
					if r.Intn(4) == 0 {
						add()
						continue
					}
					removals++
					where := fmt.Sprintf("removal %d", removals)
					probe(remove(), where)
					for i := 0; i < 3 && len(tags) > 0; i++ {
						probe(soupVec(r, r.Intn(6)), where)
						probe(ref.vecs[tags[r.Intn(len(tags))]], where)
					}
				}
				probeStored("drained")
			}
		})
	}
}

// TestDifferentialWiderKeySpace runs the same property over a wider key
// space and longer vectors, where most probes miss — the broker-shaped
// workload.
func TestDifferentialWiderKeySpace(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	ix := New(TwoWay)
	ref := &mirror{mode: TwoWay, vecs: map[uint64]attr.Vec{}}
	for tag := uint64(1); tag <= 500; tag++ {
		v := make(attr.Vec, 0, 3)
		v = append(v, attr.Int32Attr(attr.Key(1+r.Intn(20)), attr.EQ, int32(r.Intn(50))))
		if r.Intn(2) == 0 {
			v = append(v, attr.Float64Attr(attr.Key(1+r.Intn(20)), attr.Op(3+r.Intn(4)), r.Float64()))
		}
		ix.Add(v, tag)
		ref.vecs[tag] = v
	}
	for probe := 0; probe < 300; probe++ {
		msg := attr.Vec{
			attr.Int32Attr(attr.Key(1+r.Intn(20)), attr.IS, int32(r.Intn(50))),
			attr.Float64Attr(attr.Key(1+r.Intn(20)), attr.IS, r.Float64()),
		}
		got := lookupTags(ix, msg)
		want := ref.lookup(msg)
		if !eqTags(got, want) {
			t.Fatalf("probe=%d msg=%v:\nindex  %v\nlinear %v", probe, msg, got, want)
		}
	}
}

// TestDifferentialRepeatedKeyFlood: a decoded message may carry the
// decoder's 4096 actuals, here all with one key, so every actual probes the
// same postings. Lookup still reports each matching tag once, and its
// candidate scratch stays within a few times the slot count instead of
// 4096 copies of the key's postings.
func TestDifferentialRepeatedKeyFlood(t *testing.T) {
	for _, mode := range []Mode{TwoWay, OneWay} {
		r := rand.New(rand.NewSource(5))
		ix := New(mode)
		ref := &mirror{mode: mode, vecs: map[uint64]attr.Vec{}}
		for tag := uint64(1); tag <= 200; tag++ {
			v := soupVec(r, 1+r.Intn(4))
			ix.Add(v, tag)
			ref.vecs[tag] = v
		}
		flood := make(attr.Vec, 4096)
		for i := range flood {
			flood[i] = attr.Attribute{Key: 1, Op: attr.IS, Val: soupValue(r)}
		}
		msg, _, err := attr.DecodeVec(flood.AppendEncode(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := lookupTags(ix, msg), ref.lookup(msg); len(want) == 0 || !eqTags(got, want) {
			t.Fatalf("mode %d:\nindex  %v\nlinear %v", mode, got, want)
		}
		if c := cap(ix.cand); c > 4*len(ix.slots) {
			t.Fatalf("mode %d: candidate scratch grew to %d for %d slots", mode, c, len(ix.slots))
		}
	}
}

// TestLongRunsDoNotTruncate: a locally stored vector is not bounded by the
// decoder's 4096 attributes; runs longer than 65 535 keep their tails.
func TestLongRunsDoNotTruncate(t *testing.T) {
	const n = 70_000
	v := attr.Vec{attr.Int32Attr(1, attr.EQ, 1)}
	for i := 0; i < n; i++ {
		v = append(v, attr.Int32Attr(2, attr.GE, 0), attr.Int32Attr(3, attr.IS, int32(i)))
	}
	v = append(v, attr.Int32Attr(4, attr.EQ, 7)) // the formal run's last entry
	ix := New(TwoWay)
	ix.Add(v, 1)
	base := attr.Vec{attr.Int32Attr(1, attr.IS, 1), attr.Int32Attr(2, attr.IS, 5)}
	full := base.With(attr.Int32Attr(4, attr.IS, 7))
	for _, c := range []struct {
		msg  attr.Vec
		want []uint64
	}{
		{base, nil},
		{full, []uint64{1}},
		{full.With(attr.Int32Attr(3, attr.EQ, n-1)), []uint64{1}}, // the actual run's last entry
		{full.With(attr.Int32Attr(3, attr.EQ, n)), nil},
	} {
		if got := lookupTags(ix, c.msg); !eqTags(got, c.want) {
			t.Errorf("msg %v: got %v want %v", c.msg, got, c.want)
		}
	}
}

// FuzzIndexAgainstLinear drives a TwoWay and a OneWay index with vectors
// decoded from the input. Each step is a control byte and an encoded
// vector; the control byte adds the vector, removes an earlier one or
// probes with it. Every probe, and at the end every stored vector, must
// return what the linear oracle returns.
func FuzzIndexAgainstLinear(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		var b []byte
		for i := 0; i < 24; i++ {
			b = soupVec(r, r.Intn(6)).AppendEncode(append(b, byte(r.Intn(256))))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ixs := []*Index{New(TwoWay), New(OneWay)}
		refs := []*mirror{{mode: TwoWay, vecs: map[uint64]attr.Vec{}}, {mode: OneWay, vecs: map[uint64]attr.Vec{}}}
		handles := map[uint64][]Handle{}
		var tags []uint64
		probe := func(msg attr.Vec) {
			for i, ix := range ixs {
				if got, want := lookupTags(ix, msg), refs[i].lookup(msg); !eqTags(got, want) {
					t.Fatalf("mode %d msg=%v:\nindex  %v\nlinear %v", ix.mode, msg, got, want)
				}
			}
		}
		for tag := uint64(1); len(b) > 0; tag++ {
			ctrl := b[0]
			v, n, err := attr.DecodeVec(b[1:])
			if err != nil {
				break
			}
			b = b[1+n:]
			switch {
			case ctrl%3 == 0:
				for i, ix := range ixs {
					handles[tag] = append(handles[tag], ix.Add(v, tag))
					refs[i].vecs[tag] = v
				}
				tags = append(tags, tag)
			case ctrl%3 == 1 && len(tags) > 0:
				j := int(ctrl/3) % len(tags)
				gone := tags[j]
				tags = append(tags[:j], tags[j+1:]...)
				for i, ix := range ixs {
					ix.Remove(handles[gone][i])
					delete(refs[i].vecs, gone)
				}
			default:
				probe(v)
			}
		}
		for _, v := range refs[0].vecs {
			probe(v)
		}
	})
}

func ExampleIndex() {
	ix := New(TwoWay)
	ix.Add(attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "detectAnimal"),
		attr.Float64Attr(attr.KeyConfidence, attr.GT, 0.5),
	}, 42)
	got := ix.Lookup(attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.IS, "detectAnimal"),
		attr.Float64Attr(attr.KeyConfidence, attr.IS, 0.7),
	}, nil)
	fmt.Println(got)
	// Output: [42]
}
