package message

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"diffusion/internal/attr"
)

// TestUnmarshalNeverPanics throws random byte soup at the wire decoder:
// link layers deliver whatever survives the radio, and the diffusion core
// must shrug off anything that is not a well-formed message.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, int(n)%512)
		r.Read(b)
		m, err := Unmarshal(b)
		// Either a clean error or a structurally valid message.
		if err != nil {
			return m == nil
		}
		return m.Class.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestBitFlippedMessages corrupts valid encodings bit by bit: decoding
// must never panic, and any message that does decode must be structurally
// valid.
func TestBitFlippedMessages(t *testing.T) {
	base := sample().Marshal()
	for i := 0; i < len(base); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), base...)
			mut[i] ^= 1 << bit
			m, err := Unmarshal(mut)
			if err == nil && !m.Class.Valid() {
				t.Fatalf("byte %d bit %d: invalid class decoded", i, bit)
			}
		}
	}
}

// TestTruncationsNeverPanic decodes every prefix of a valid encoding.
func TestTruncationsNeverPanic(t *testing.T) {
	base := sample().Marshal()
	for i := 0; i <= len(base); i++ {
		_, _ = Unmarshal(base[:i])
	}
}

// sameError reports whether two decode errors are of the same class.
func sameError(a, b error) bool {
	for _, sentinel := range []error{nil, ErrShortHeader, ErrBadClass,
		attr.ErrTruncated, attr.ErrBadOp, attr.ErrBadType, attr.ErrTooManyAtt} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return true
}

// FuzzUnmarshal holds the message decoder to its contract: it never panics,
// what decodes re-encodes to exactly the bytes consumed, the header agrees
// with the Peek helpers link layers use on the same bytes, and the message
// shares nothing with its input. The attribute vector is attr.DecodeVec's,
// which FuzzDecodeVec compares against the decoder it replaced. UnmarshalView
// into a message that has just held another, and Check, are held to
// Unmarshal on the same bytes: the same verdict, the same message, and no
// attributes left behind by a failure. The seed corpus is the files under
// testdata/fuzz/FuzzUnmarshal, named for what each one is.
func FuzzUnmarshal(f *testing.F) {
	primer := sample()
	primer.Flow = 0x1234 // a header field the next decode must not inherit
	primerWire := primer.Marshal()
	f.Fuzz(func(t *testing.T, b []byte) {
		orig := bytes.Clone(b)
		m, err := Unmarshal(b)
		var view Message
		if err := UnmarshalView(&view, primerWire); err != nil {
			t.Fatal(err)
		}
		viewErr := UnmarshalView(&view, b)
		if checkErr := Check(b); !sameError(viewErr, err) || !sameError(checkErr, err) {
			t.Fatalf("Unmarshal error %v, UnmarshalView error %v, Check error %v", err, viewErr, checkErr)
		}
		if err != nil {
			if m != nil || len(view.Attrs) != 0 {
				t.Fatalf("failed decode returned %v, view kept %v", m, view.Attrs)
			}
			return
		}
		if !reflect.DeepEqual(&view, m) {
			t.Fatalf("UnmarshalView = %#v, Unmarshal = %#v", &view, m)
		}
		if !m.Class.Valid() {
			t.Fatalf("decoded invalid class %d", m.Class)
		}
		enc := m.Marshal()
		if len(enc) != m.Size() {
			t.Fatalf("Size() = %d but the encoding is %d bytes", m.Size(), len(enc))
		}
		// A flagged header carrying flow 0 decodes as unsampled and is not
		// re-emitted with the flag; everything else is byte-identical.
		if flagged := orig[0]&flowFlag != 0; flagged && m.Flow == 0 {
			if !bytes.Equal(enc[headerSize:], orig[headerSize+2:len(enc)+2]) {
				t.Fatalf("re-encoded attributes differ:\n got %x\nwant %x", enc, orig)
			}
		} else if !bytes.Equal(enc, orig[:len(enc)]) {
			t.Fatalf("re-encoding differs from the bytes consumed:\n got %x\nwant %x", enc, orig[:len(enc)])
		}
		if c, ok := PeekClass(orig); !ok || c != m.Class {
			t.Fatalf("PeekClass = %v, %v; decoded %v", c, ok, m.Class)
		}
		if id := PeekID(orig); id != m.ID {
			t.Fatalf("PeekID = %v, decoded %v", id, m.ID)
		}
		if flow, hop := PeekTrace(orig); flow != m.Flow || (flow != 0 && hop != m.HopCount) {
			t.Fatalf("PeekTrace = %#x, %d; decoded %#x, %d", flow, hop, m.Flow, m.HopCount)
		}
		// No aliasing: the input is the caller's to overwrite.
		for i := range b {
			b[i] ^= 0xFF
		}
		if again := m.Marshal(); !bytes.Equal(again, enc) {
			t.Fatalf("overwriting the input changed the decoded message:\n got %x\nwant %x", again, enc)
		}
		// No neighbours: growing one blob must not reach the next value.
		for _, a := range m.Attrs {
			if a.Val.Type == attr.TypeBlob {
				_ = append(a.Val.Blob(), 0xA5, 0xA5, 0xA5, 0xA5)
			}
		}
		if again := m.Marshal(); !bytes.Equal(again, enc) {
			t.Fatalf("appending to a decoded blob changed the message:\n got %x\nwant %x", again, enc)
		}
	})
}
