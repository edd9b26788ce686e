package attr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// decodeVecOracle is the decoder DecodeVec replaced: one pass, one copy
// per string and blob. It stays here as the reference FuzzDecodeVec
// compares the arena decoder against.
func decodeVecOracle(b []byte) (Vec, int, error) {
	if len(b) < vecHeaderSize {
		return nil, 0, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > maxVecLen {
		return nil, 0, ErrTooManyAtt
	}
	off := vecHeaderSize
	v := make(Vec, 0, n)
	for i := 0; i < n; i++ {
		if len(b)-off < attrHeaderSize {
			return nil, 0, ErrTruncated
		}
		a := Attribute{
			Key: Key(binary.BigEndian.Uint32(b[off:])),
			Op:  Op(b[off+4]),
		}
		t := Type(b[off+5])
		off += attrHeaderSize
		if !a.Op.Valid() {
			return nil, 0, fmt.Errorf("%w: %d", ErrBadOp, a.Op)
		}
		switch t {
		case TypeInt32, TypeFloat32:
			if len(b)-off < 4 {
				return nil, 0, ErrTruncated
			}
			a.Val = Value{Type: t, num: uint64(binary.BigEndian.Uint32(b[off:]))}
			off += 4
		case TypeInt64, TypeFloat64:
			if len(b)-off < 8 {
				return nil, 0, ErrTruncated
			}
			a.Val = Value{Type: t, num: binary.BigEndian.Uint64(b[off:])}
			off += 8
		case TypeString, TypeBlob:
			if len(b)-off < 2 {
				return nil, 0, ErrTruncated
			}
			l := int(binary.BigEndian.Uint16(b[off:]))
			off += 2
			if len(b)-off < l {
				return nil, 0, ErrTruncated
			}
			if t == TypeString {
				a.Val = StringValue(string(b[off : off+l]))
			} else {
				a.Val = BlobValue(b[off : off+l])
			}
			off += l
		default:
			return nil, 0, fmt.Errorf("%w: %d", ErrBadType, t)
		}
		v = append(v, a)
	}
	return v, off, nil
}

// FuzzDecodeVec holds both decoders to the oracle and to their ownership
// rules. DecodeVec: what it returns shares nothing with its input, and no
// decoded value can be reached through another. DecodeVecView: the same
// vector out of the caller's storage, nothing left of that storage's last
// use, blobs that cannot be grown into the input — and windows onto the
// input, as documented, so overwriting it shows. The seed corpus is the files
// under testdata/fuzz/FuzzDecodeVec, named for what each one is.
func FuzzDecodeVec(f *testing.F) {
	// Four strings and a blob: whatever of them outlives the next decode into
	// the same storage would show up in that decode's result.
	viewPrimer := Vec{
		StringAttr(KeyTask, IS, "stale"), StringAttr(KeyType, IS, "stale"),
		StringAttr(KeyTask, EQ, "stale"), StringAttr(KeyType, EQ, "stale"),
		BlobAttr(KeyPayload, IS, []byte("stale")),
	}.AppendEncode(nil)
	f.Fuzz(func(t *testing.T, b []byte) {
		orig := bytes.Clone(b)
		want, wantN, wantErr := decodeVecOracle(b)
		v, n, err := DecodeVec(b)
		// The view decodes into storage another vector just used.
		dst, _, _ := DecodeVecView(nil, viewPrimer)
		view, viewN, viewErr := DecodeVecView(dst, b)
		if err != nil || wantErr != nil {
			for _, sentinel := range []error{nil, ErrTruncated, ErrBadOp, ErrBadType, ErrTooManyAtt} {
				if is := errors.Is(wantErr, sentinel); errors.Is(err, sentinel) != is || errors.Is(viewErr, sentinel) != is {
					t.Fatalf("DecodeVec error %v, DecodeVecView error %v, oracle error %v", err, viewErr, wantErr)
				}
			}
			if v != nil || n != 0 || len(view) != 0 || viewN != 0 {
				t.Fatalf("failed decode returned %v, %d; view %v, %d", v, n, view, viewN)
			}
			return
		}
		if n != wantN || !v.Equal(want) {
			t.Fatalf("DecodeVec = %v (%d bytes), oracle = %v (%d bytes)", v, n, want, wantN)
		}
		if viewN != wantN || !view.Equal(want) {
			t.Fatalf("DecodeVecView = %v (%d bytes), oracle = %v (%d bytes)", view, viewN, want, wantN)
		}
		// Field for field, unexported ones included: a string left behind in
		// a slot that now holds a number is invisible to Equal.
		if !reflect.DeepEqual(view, v) {
			t.Fatalf("DecodeVecView into used storage = %#v, DecodeVec = %#v", view, v)
		}
		if len(view) > 0 && len(view) <= cap(dst) && &view[0] != &dst[:1][0] {
			t.Fatalf("DecodeVecView left storage of capacity %d unused for %d attributes", cap(dst), len(view))
		}
		// No neighbours in the view either: growing a blob must reallocate,
		// not write into the input behind it.
		for _, a := range view {
			if a.Val.Type == TypeBlob {
				_ = append(a.Val.Blob(), 0xA5, 0xA5, 0xA5, 0xA5)
			}
		}
		if !bytes.Equal(b, orig) {
			t.Fatalf("appending to a view's blob wrote into the input:\n got %x\nwant %x", b, orig)
		}
		if enc := v.AppendEncode(nil); !bytes.Equal(enc, orig[:n]) {
			t.Fatalf("re-encoding differs from the bytes consumed:\n got %x\nwant %x", enc, orig[:n])
		}
		// No aliasing: the input is the caller's to overwrite.
		for i := range b {
			b[i] ^= 0xFF
		}
		if !v.Equal(want) {
			t.Fatalf("overwriting the input changed the decoded vector: %v", v)
		}
		// The view does alias it: every string and blob byte just flipped.
		for i, a := range view {
			if (a.Val.Type == TypeString || a.Val.Type == TypeBlob) && a.Val.Size() > 2 && attrEqual(a, want[i]) {
				t.Fatalf("overwriting the input did not change view attribute %d (%v): it is a copy, not a window", i, a)
			}
		}
		// No neighbours: growing one blob must reallocate, not run on into
		// the value behind it in the arena.
		for _, a := range v {
			if a.Val.Type == TypeBlob {
				_ = append(a.Val.Blob(), 0xA5, 0xA5, 0xA5, 0xA5)
			}
		}
		if !v.Equal(want) {
			t.Fatalf("appending to a decoded blob changed the vector: %v", v)
		}
	})
}
