package attr

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"unsafe"
)

// Wire format. Attribute vectors are encoded as:
//
//	uint16 count
//	count × { uint32 key | uint8 op | uint8 type | value }
//
// where value is 4 bytes (int32/float32), 8 bytes (int64/float64), or a
// uint16 length followed by that many bytes (string/blob). All integers are
// big-endian. The format is compact enough that the paper's ~100-127 byte
// message sizes are reachable with realistic attribute sets.

const (
	vecHeaderSize  = 2
	attrHeaderSize = 4 + 1 + 1
)

// Encoding errors.
var (
	ErrTruncated  = errors.New("attr: truncated encoding")
	ErrBadOp      = errors.New("attr: invalid operation")
	ErrBadType    = errors.New("attr: invalid value type")
	ErrTooManyAtt = errors.New("attr: too many attributes")
)

// maxVecLen bounds decoded vectors, protecting the diffusion core from
// malformed frames.
const maxVecLen = 4096

// AppendEncode appends the wire encoding of v to dst and returns the
// extended slice.
func (v Vec) AppendEncode(dst []byte) []byte {
	if len(v) > maxVecLen {
		panic(ErrTooManyAtt)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(v)))
	for _, a := range v {
		dst = binary.BigEndian.AppendUint32(dst, uint32(a.Key))
		dst = append(dst, byte(a.Op), byte(a.Val.Type))
		switch a.Val.Type {
		case TypeInt32, TypeFloat32:
			dst = binary.BigEndian.AppendUint32(dst, uint32(a.Val.num))
		case TypeInt64, TypeFloat64:
			dst = binary.BigEndian.AppendUint64(dst, a.Val.num)
		case TypeString:
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Val.str)))
			dst = append(dst, a.Val.str...)
		case TypeBlob:
			dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Val.blob)))
			dst = append(dst, a.Val.blob...)
		}
	}
	return dst
}

// ScanVec validates the attribute vector encoded at the front of b without
// building it, and returns its attribute count and encoded length. It is the
// first half of every decode: whatever it accepts, the fill cannot fail on.
func ScanVec(b []byte) (n, size int, err error) {
	if len(b) < vecHeaderSize {
		return 0, 0, ErrTruncated
	}
	n = int(binary.BigEndian.Uint16(b))
	if n > maxVecLen {
		return 0, 0, ErrTooManyAtt
	}
	off := vecHeaderSize
	for i := 0; i < n; i++ {
		if len(b)-off < attrHeaderSize {
			return 0, 0, ErrTruncated
		}
		if op := Op(b[off+4]); !op.Valid() {
			return 0, 0, fmt.Errorf("%w: %d", ErrBadOp, op)
		}
		t := Type(b[off+5])
		off += attrHeaderSize
		size := 0
		switch t {
		case TypeInt32, TypeFloat32:
			size = 4
		case TypeInt64, TypeFloat64:
			size = 8
		case TypeString, TypeBlob:
			if len(b)-off < 2 {
				return 0, 0, ErrTruncated
			}
			size = 2 + int(binary.BigEndian.Uint16(b[off:]))
		default:
			return 0, 0, fmt.Errorf("%w: %d", ErrBadType, t)
		}
		if len(b)-off < size {
			return 0, 0, ErrTruncated
		}
		off += size
	}
	return n, off, nil
}

// fillVec is the second half of a decode: it overwrites every element of v
// from an encoding ScanVec accepted for len(v) attributes. String and blob
// values become windows onto b.
func fillVec(v Vec, b []byte) {
	off := vecHeaderSize
	for i := range v {
		a := Attribute{
			Key: Key(binary.BigEndian.Uint32(b[off:])),
			Op:  Op(b[off+4]),
			Val: Value{Type: Type(b[off+5])},
		}
		off += attrHeaderSize
		switch a.Val.Type {
		case TypeInt32, TypeFloat32:
			a.Val.num = uint64(binary.BigEndian.Uint32(b[off:]))
			off += 4
		case TypeInt64, TypeFloat64:
			a.Val.num = binary.BigEndian.Uint64(b[off:])
			off += 8
		default:
			l := int(binary.BigEndian.Uint16(b[off:]))
			off += 2
			if a.Val.Type == TypeBlob {
				// Capacity-clipped, so an append to one value reallocates
				// instead of running into the bytes behind it.
				a.Val.blob = b[off : off+l : off+l]
			} else if l > 0 {
				// Sound while nobody writes b again, which is both callers'
				// contract; Blob's callers must not modify their window, and
				// no window overlaps a string's.
				a.Val.str = unsafe.String(&b[off], l)
			}
			off += l
		}
		v[i] = a
	}
}

// DecodeVec decodes one attribute vector from the front of b and returns it
// together with the number of bytes consumed. The result shares nothing with
// b: string and blob values are windows onto one private copy of the bytes
// consumed, so the decode costs two allocations however many attributes there
// are, and retaining any one value pins that copy.
func DecodeVec(b []byte) (Vec, int, error) {
	n, size, err := ScanVec(b)
	if err != nil {
		return nil, 0, err
	}
	v := make(Vec, n)
	fillVec(v, bytes.Clone(b[:size]))
	return v, size, nil
}

// DecodeVecView decodes like DecodeVec but allocates nothing once dst has
// the capacity: the vector is built over dst's storage (elements past the
// result's length are left alone; on error, all of them) and its string and
// blob values are windows onto b itself. The result is valid only while b is
// never written again, and retaining any one value pins all of b.
func DecodeVecView(dst Vec, b []byte) (Vec, int, error) {
	n, size, err := ScanVec(b)
	if err != nil {
		return dst[:0], 0, err
	}
	if cap(dst) < n {
		dst = make(Vec, n)
	}
	dst = dst[:n]
	fillVec(dst, b)
	return dst, size, nil
}

// Own returns a copy of v that shares nothing with it: v encoded into buf and
// decoded over dst (DecodeVecView), both reused. Values must fit the wire.
func (v Vec) Own(dst Vec, buf []byte) (Vec, []byte) {
	buf = v.AppendEncode(slices.Grow(buf[:0], v.Size()))
	dst, _, _ = DecodeVecView(dst, buf)
	return dst, buf
}

// Hash returns a canonical 64-bit hash of the vector, insensitive to
// attribute order. The diffusion core compares hashes instead of complete
// attribute sets for duplicate suppression, the optimization section 3.1
// describes ("hashes of attributes can be computed and compared rather than
// complete data"). v.Hash(x...) is v.With(x...).Hash() without building it.
func (v Vec) Hash(extra ...Attribute) uint64 {
	// Hash each attribute independently, then combine order-insensitively.
	var sum, xor uint64
	for _, w := range [2]Vec{v, extra} {
		for _, a := range w {
			h := fnv.New64a()
			var buf [attrHeaderSize + 8]byte
			binary.BigEndian.PutUint32(buf[:], uint32(a.Key))
			buf[4] = byte(a.Op)
			buf[5] = byte(a.Val.Type)
			binary.BigEndian.PutUint64(buf[6:], a.Val.num)
			h.Write(buf[:])
			switch a.Val.Type {
			case TypeString:
				h.Write([]byte(a.Val.str))
			case TypeBlob:
				h.Write(a.Val.blob)
			}
			hv := h.Sum64()
			sum += hv
			xor ^= hv
		}
	}
	return sum ^ (xor * 0x9e3779b97f4a7c15)
}

// Equal reports whether a and b contain the same attributes in the same
// order.
func (v Vec) Equal(o Vec) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if !attrEqual(v[i], o[i]) {
			return false
		}
	}
	return true
}

func attrEqual(a, b Attribute) bool {
	if a.Key != b.Key || a.Op != b.Op || a.Val.Type != b.Val.Type {
		return false
	}
	switch a.Val.Type {
	case TypeString:
		return a.Val.str == b.Val.str
	case TypeBlob:
		return string(a.Val.blob) == string(b.Val.blob)
	default:
		return a.Val.num == b.Val.num
	}
}
