// Package attr implements the attribute-value-operation tuples and the
// one-way/two-way matching rules that form the low-level naming layer of
// directed diffusion (SOSP 2001, section 3.2).
//
// An attribute is a (key, operation, value) triple. Keys are 32-bit numbers
// drawn from a central registry, mirroring the paper's out-of-band key
// assignment. The operation is either the single "actual" operation IS,
// which binds a literal value, or one of the "formal" comparison operations
// (EQ, NE, LT, LE, GT, GE, EQAny) which constrain the actuals of the peer
// attribute set during matching.
package attr

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
)

// Key identifies an attribute. Keys are allocated by the central registry
// (see keys.go), just as the paper assumes out-of-band coordination of
// 32-bit key numbers.
type Key uint32

// Op is the operation field of an attribute tuple.
type Op uint8

// Operation values. IS is the only actual (literal binding); the rest are
// formals (unbound comparisons resolved at match time).
const (
	// IS binds an actual (literal) value.
	IS Op = iota
	// EQ requires an actual equal to the formal's value.
	EQ
	// NE requires an actual different from the formal's value.
	NE
	// LT requires an actual strictly less than the formal's value.
	LT
	// LE requires an actual less than or equal to the formal's value.
	LE
	// GT requires an actual strictly greater than the formal's value.
	GT
	// GE requires an actual greater than or equal to the formal's value.
	GE
	// EQAny matches any actual with the same key, regardless of value.
	EQAny

	numOps
)

// IsFormal reports whether the operation is a formal (comparison) that must
// be satisfied by an actual in the peer attribute set.
func (op Op) IsFormal() bool { return op != IS }

// IsActual reports whether the operation binds a literal value.
func (op Op) IsActual() bool { return op == IS }

// Valid reports whether op is one of the defined operations.
func (op Op) Valid() bool { return op < numOps }

// String returns the paper's spelling of the operation.
func (op Op) String() string {
	switch op {
	case IS:
		return "IS"
	case EQ:
		return "EQ"
	case NE:
		return "NE"
	case LT:
		return "LT"
	case LE:
		return "LE"
	case GT:
		return "GT"
	case GE:
		return "GE"
	case EQAny:
		return "EQ_ANY"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Type is the data format of an attribute value. The paper supports
// "integers and floating point values of different sizes, strings, and
// uninterpreted binary data".
type Type uint8

// Value types.
const (
	TypeInt32 Type = iota
	TypeInt64
	TypeFloat32
	TypeFloat64
	TypeString
	TypeBlob
)

// String returns a short name for the type.
func (t Type) String() string {
	switch t {
	case TypeInt32:
		return "int32"
	case TypeInt64:
		return "int64"
	case TypeFloat32:
		return "float32"
	case TypeFloat64:
		return "float64"
	case TypeString:
		return "string"
	case TypeBlob:
		return "blob"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Value is a typed attribute value. The zero Value is an int32 zero.
type Value struct {
	Type Type
	// num holds integer values directly and float values via math.Float64bits.
	num uint64
	// str holds string values; blob holds binary values.
	str  string
	blob []byte
}

// Int32Value returns a Value holding v.
func Int32Value(v int32) Value { return Value{Type: TypeInt32, num: uint64(uint32(v))} }

// Int64Value returns a Value holding v.
func Int64Value(v int64) Value { return Value{Type: TypeInt64, num: uint64(v)} }

// Float32Value returns a Value holding v.
func Float32Value(v float32) Value {
	return Value{Type: TypeFloat32, num: uint64(math.Float32bits(v))}
}

// Float64Value returns a Value holding v.
func Float64Value(v float64) Value {
	return Value{Type: TypeFloat64, num: math.Float64bits(v)}
}

// StringValue returns a Value holding v.
func StringValue(v string) Value { return Value{Type: TypeString, str: v} }

// BlobValue returns a Value holding a copy of v.
func BlobValue(v []byte) Value {
	b := make([]byte, len(v))
	copy(b, v)
	return Value{Type: TypeBlob, blob: b}
}

// Int32 returns the value as an int32. It panics if the type differs.
func (v Value) Int32() int32 {
	v.mustBe(TypeInt32)
	return int32(uint32(v.num))
}

// Int64 returns the value as an int64. It panics if the type differs.
func (v Value) Int64() int64 {
	v.mustBe(TypeInt64)
	return int64(v.num)
}

// Float32 returns the value as a float32. It panics if the type differs.
func (v Value) Float32() float32 {
	v.mustBe(TypeFloat32)
	return math.Float32frombits(uint32(v.num))
}

// Float64 returns the value as a float64. It panics if the type differs.
func (v Value) Float64() float64 {
	v.mustBe(TypeFloat64)
	return math.Float64frombits(v.num)
}

// String returns the value as a string when it holds one, and otherwise a
// printable rendering (so Value satisfies fmt.Stringer safely).
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendString(buf[:0]))
}

// AppendString appends what String returns to b: the form for callers that
// build a key or a line in a buffer they reuse.
func (v Value) AppendString(b []byte) []byte {
	switch v.Type {
	case TypeInt32:
		return strconv.AppendInt(b, int64(int32(uint32(v.num))), 10)
	case TypeInt64:
		return strconv.AppendInt(b, int64(v.num), 10)
	case TypeFloat32:
		return strconv.AppendFloat(b, float64(math.Float32frombits(uint32(v.num))), 'g', -1, 32)
	case TypeFloat64:
		return strconv.AppendFloat(b, math.Float64frombits(v.num), 'g', -1, 64)
	case TypeString:
		return strconv.AppendQuote(b, v.str)
	case TypeBlob:
		return base64.StdEncoding.AppendEncode(append(b, "0x"...), v.blob)
	default:
		return fmt.Appendf(b, "Value(type=%d)", v.Type)
	}
}

// Str returns the underlying string. It panics if the type differs.
func (v Value) Str() string {
	v.mustBe(TypeString)
	return v.str
}

// Blob returns the underlying bytes. Callers must not modify the result.
// It panics if the type differs.
func (v Value) Blob() []byte {
	v.mustBe(TypeBlob)
	return v.blob
}

// Numeric reports whether the value holds an integer or float.
func (v Value) Numeric() bool {
	switch v.Type {
	case TypeInt32, TypeInt64, TypeFloat32, TypeFloat64:
		return true
	}
	return false
}

// AsFloat returns a numeric value widened to float64 for cross-size
// comparisons. It panics for non-numeric values.
func (v Value) AsFloat() float64 {
	switch v.Type {
	case TypeInt32:
		return float64(int32(uint32(v.num)))
	case TypeInt64:
		return float64(int64(v.num))
	case TypeFloat32:
		return float64(math.Float32frombits(uint32(v.num)))
	case TypeFloat64:
		return math.Float64frombits(v.num)
	default:
		panic("attr: AsFloat on non-numeric value of type " + v.Type.String())
	}
}

func (v Value) mustBe(t Type) {
	if v.Type != t {
		panic(fmt.Sprintf("attr: value is %v, not %v", v.Type, t))
	}
}

// Size returns the encoded size of the value payload in bytes, used for the
// byte-level traffic accounting in the evaluation.
func (v Value) Size() int {
	switch v.Type {
	case TypeInt32, TypeFloat32:
		return 4
	case TypeInt64, TypeFloat64:
		return 8
	case TypeString:
		return 2 + len(v.str)
	case TypeBlob:
		return 2 + len(v.blob)
	default:
		return 0
	}
}

// Attribute is one attribute-value-operation tuple.
type Attribute struct {
	Key Key
	Op  Op
	Val Value
}

// String renders the tuple in the paper's "key OP value" notation.
func (a Attribute) String() string {
	if a.Op == EQAny {
		return fmt.Sprintf("%s EQ_ANY", KeyName(a.Key))
	}
	return fmt.Sprintf("%s %s %s", KeyName(a.Key), a.Op, a.Val)
}

// Size returns the encoded size of the attribute in bytes.
func (a Attribute) Size() int { return attrHeaderSize + a.Val.Size() }

// Convenience constructors. Each returns a single tuple; compose them into
// a Vec to form an interest or a data description.

// Int32Attr returns key op v with an int32 value.
func Int32Attr(k Key, op Op, v int32) Attribute { return Attribute{k, op, Int32Value(v)} }

// Int64Attr returns key op v with an int64 value.
func Int64Attr(k Key, op Op, v int64) Attribute { return Attribute{k, op, Int64Value(v)} }

// Float32Attr returns key op v with a float32 value.
func Float32Attr(k Key, op Op, v float32) Attribute { return Attribute{k, op, Float32Value(v)} }

// Float64Attr returns key op v with a float64 value.
func Float64Attr(k Key, op Op, v float64) Attribute { return Attribute{k, op, Float64Value(v)} }

// StringAttr returns key op v with a string value.
func StringAttr(k Key, op Op, v string) Attribute { return Attribute{k, op, StringValue(v)} }

// BlobAttr returns key op v with a binary value.
func BlobAttr(k Key, op Op, v []byte) Attribute { return Attribute{k, op, BlobValue(v)} }

// Any returns the wildcard formal "key EQ_ANY", which matches any actual
// for the key.
func Any(k Key) Attribute { return Attribute{k, EQAny, Int32Value(0)} }

// Vec is an attribute set: the unit of naming for interests and data.
type Vec []Attribute

// Clone returns a deep copy of the vector (blob payloads are shared, as
// Values are immutable by convention).
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// FindActual returns the first actual (IS) attribute with the given key.
func (v Vec) FindActual(k Key) (Attribute, bool) {
	for _, a := range v {
		if a.Key == k && a.Op.IsActual() {
			return a, true
		}
	}
	return Attribute{}, false
}

// With returns a new Vec with extra appended (the receiver is not modified).
func (v Vec) With(extra ...Attribute) Vec {
	out := make(Vec, 0, len(v)+len(extra))
	out = append(out, v...)
	return append(out, extra...)
}

// Without returns a new Vec with every attribute for key k removed.
func (v Vec) Without(k Key) Vec {
	out := make(Vec, 0, len(v))
	for _, a := range v {
		if a.Key != k {
			out = append(out, a)
		}
	}
	return out
}

// Size returns the encoded size of the vector in bytes.
func (v Vec) Size() int {
	n := vecHeaderSize
	for _, a := range v {
		n += a.Size()
	}
	return n
}

// String renders the vector in the paper's parenthesized tuple-list form.
func (v Vec) String() string {
	s := "("
	for i, a := range v {
		if i > 0 {
			s += ", "
		}
		s += a.String()
	}
	return s + ")"
}
