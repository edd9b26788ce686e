package attr

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v := Vec{
		Int32Attr(KeyClass, IS, ClassData),
		Int64Attr(KeyTimestamp, IS, 1<<40),
		Float32Attr(KeyIntensity, IS, 0.6),
		Float64Attr(KeyConfidence, GT, 0.85),
		StringAttr(KeyInstance, IS, "elephant"),
		BlobAttr(KeyPayload, IS, []byte{0, 1, 2, 254, 255}),
		Any(KeyType),
	}
	enc := v.AppendEncode(nil)
	if len(enc) != v.Size() {
		t.Errorf("Size()=%d but encoding is %d bytes", v.Size(), len(enc))
	}
	got, n, err := DecodeVec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d bytes", n, len(enc))
	}
	if !got.Equal(v) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, v)
	}
}

func TestDecodeTruncated(t *testing.T) {
	v := Vec{StringAttr(KeyTask, IS, "detectAnimal"), Int32Attr(KeyX, IS, 7)}
	enc := v.AppendEncode(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeVec(enc[:i]); err == nil {
			t.Errorf("decoding %d-byte prefix should fail", i)
		}
	}
}

func TestDecodeBadOpAndType(t *testing.T) {
	enc := Vec{Int32Attr(KeyX, IS, 1)}.AppendEncode(nil)
	bad := append([]byte(nil), enc...)
	bad[2+4] = 250 // op byte
	if _, _, err := DecodeVec(bad); !errors.Is(err, ErrBadOp) {
		t.Errorf("want ErrBadOp, got %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[2+5] = 250 // type byte
	if _, _, err := DecodeVec(bad); !errors.Is(err, ErrBadType) {
		t.Errorf("want ErrBadType, got %v", err)
	}
}

func TestDecodeEmpty(t *testing.T) {
	enc := Vec{}.AppendEncode(nil)
	got, n, err := DecodeVec(enc)
	if err != nil || n != 2 || len(got) != 0 {
		t.Errorf("empty vec round trip: got %v, n=%d, err=%v", got, n, err)
	}
}

func TestDecodeTrailingBytesIgnored(t *testing.T) {
	v := Vec{Int32Attr(KeyX, IS, 9)}
	enc := append(v.AppendEncode(nil), 0xAA, 0xBB)
	got, n, err := DecodeVec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc)-2 || !got.Equal(v) {
		t.Errorf("decode with trailing bytes: n=%d got=%v", n, got)
	}
}

func TestHashOrderInsensitive(t *testing.T) {
	a := Vec{
		Int32Attr(KeyX, IS, 1),
		StringAttr(KeyTask, IS, "t"),
		Float64Attr(KeyConfidence, GT, 0.5),
	}
	b := Vec{a[2], a[0], a[1]}
	if a.Hash() != b.Hash() {
		t.Error("hash must be order-insensitive")
	}
	if a[:1].Hash(a[1:]...) != b.Hash() {
		t.Error("extra attributes must hash as if appended")
	}
	c := a.Clone()
	c[0] = Int32Attr(KeyX, IS, 2)
	if a.Hash() == c.Hash() {
		t.Error("different values should (overwhelmingly) hash differently")
	}
}

func TestHashDistinguishesOpAndType(t *testing.T) {
	a := Vec{Int32Attr(KeyX, IS, 1)}
	b := Vec{Int32Attr(KeyX, EQ, 1)}
	c := Vec{Int64Attr(KeyX, IS, 1)}
	if a.Hash() == b.Hash() {
		t.Error("op must affect the hash")
	}
	if a.Hash() == c.Hash() {
		t.Error("value type must affect the hash")
	}
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVec(r, r.Intn(12))
		got, n, err := DecodeVec(v.AppendEncode(nil))
		return err == nil && n == v.Size() && got.Equal(v) && got.Hash() == v.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestValueAccessors(t *testing.T) {
	if Int32Value(-5).Int32() != -5 {
		t.Error("int32 round trip")
	}
	if Int64Value(math.MinInt64).Int64() != math.MinInt64 {
		t.Error("int64 round trip")
	}
	if Float32Value(1.5).Float32() != 1.5 {
		t.Error("float32 round trip")
	}
	if Float64Value(math.Pi).Float64() != math.Pi {
		t.Error("float64 round trip")
	}
	if StringValue("x").Str() != "x" {
		t.Error("string round trip")
	}
	if string(BlobValue([]byte("ab")).Blob()) != "ab" {
		t.Error("blob round trip")
	}
	// Blob values copy their input.
	src := []byte{1, 2}
	v := BlobValue(src)
	src[0] = 9
	if v.Blob()[0] != 1 {
		t.Error("BlobValue must copy")
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-type accessor must panic")
		}
	}()
	Int32Value(1).Str()
}

func TestVecHelpers(t *testing.T) {
	v := Vec{Int32Attr(KeyX, GE, 1), Int32Attr(KeyX, IS, 5), Int32Attr(KeyY, IS, 2)}
	if a, ok := v.FindActual(KeyX); !ok || a.Val.Int32() != 5 {
		t.Error("FindActual skips formals")
	}
	if _, ok := v.FindActual(KeyTask); ok {
		t.Error("FindActual on absent key")
	}
	w := v.Without(KeyX)
	if len(w) != 1 || w[0].Key != KeyY {
		t.Errorf("Without: %v", w)
	}
	if len(v) != 3 {
		t.Error("Without must not modify receiver")
	}
	u := v.With(Int32Attr(KeyTask, IS, 1))
	if len(u) != 4 || len(v) != 3 {
		t.Error("With must append to a copy")
	}
}

func TestKeyRegistry(t *testing.T) {
	k1 := RegisterKey("test-key-registry-a")
	k2 := RegisterKey("test-key-registry-a")
	k3 := RegisterKey("test-key-registry-b")
	if k1 != k2 {
		t.Error("re-registration must return the same key")
	}
	if k1 == k3 {
		t.Error("distinct names must get distinct keys")
	}
	if k1 < firstAppKey {
		t.Error("application keys start at the app range")
	}
	if KeyName(KeyConfidence) != "confidence" {
		t.Errorf("KeyName(confidence)=%q", KeyName(KeyConfidence))
	}
	if KeyName(Key(999999)) == "" {
		t.Error("unregistered keys still render")
	}
	keys := RegisteredKeys()
	if len(keys) < 18 {
		t.Errorf("expected the well-known keys, got %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Error("RegisteredKeys must be sorted ascending")
		}
	}
}

func TestStringRendering(t *testing.T) {
	v := Vec{
		StringAttr(KeyType, EQ, "four-legged-animal-search"),
		Int32Attr(KeyInterval, IS, 20),
		Any(KeyInstance),
	}
	s := v.String()
	want := `(type EQ "four-legged-animal-search", interval IS 20, instance EQ_ANY)`
	if s != want {
		t.Errorf("String()=%s\nwant     %s", s, want)
	}
}
