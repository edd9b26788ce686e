package attr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// FuzzDecodeVec holds the arena decoder to the oracle and to the ownership
// rule: what it returns shares nothing with its input, and no decoded value
// can be reached through another. The seed corpus is the files under
// testdata/fuzz/FuzzDecodeVec, named for what each one is.
func FuzzDecodeVec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		orig := bytes.Clone(b)
		want, wantN, wantErr := decodeVecOracle(b)
		v, n, err := DecodeVec(b)
		if err != nil || wantErr != nil {
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("DecodeVec error %v, oracle error %v", err, wantErr)
			}
			for _, sentinel := range []error{ErrTruncated, ErrBadOp, ErrBadType, ErrTooManyAtt} {
				if errors.Is(err, sentinel) != errors.Is(wantErr, sentinel) {
					t.Fatalf("DecodeVec error %v, oracle error %v", err, wantErr)
				}
			}
			if v != nil || n != 0 {
				t.Fatalf("failed decode returned %v, %d", v, n)
			}
			return
		}
		if n != wantN || !v.Equal(want) {
			t.Fatalf("DecodeVec = %v (%d bytes), oracle = %v (%d bytes)", v, n, want, wantN)
		}
		if enc := v.Encode(); !bytes.Equal(enc, orig[:n]) {
			t.Fatalf("re-encoding differs from the bytes consumed:\n got %x\nwant %x", enc, orig[:n])
		}
		// No aliasing: the input is the caller's to overwrite.
		for i := range b {
			b[i] ^= 0xFF
		}
		if !v.Equal(want) {
			t.Fatalf("overwriting the input changed the decoded vector: %v", v)
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
