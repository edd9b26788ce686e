// Package message defines the diffusion message: a typed header plus an
// attribute vector, with a compact binary wire format. Following the paper,
// messages are identified for duplicate suppression by a (random origin id,
// packet number) pair rather than by any global node address, and carry only
// hop-local previous/next identifiers ("nodes do not need to have globally
// unique identifiers ... nodes, however, do need to distinguish between
// neighbors").
package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"diffusion/internal/attr"
)

// Class is the diffusion message type.
type Class uint8

// Message classes. Exploratory data is flooded along all gradients; plain
// data travels only on reinforced gradients (section 3.1).
const (
	Interest Class = iota
	Data
	ExploratoryData
	PositiveReinforcement
	NegativeReinforcement
	// CustodyAck confirms hop-by-hop custody transfer in store-and-carry
	// mode: the receiver now vouches for the message named by ID, so the
	// sender may release its own custody. It carries no attributes and is
	// never forwarded.
	CustodyAck

	numClasses
)

// NumClasses is the number of defined message classes, for sizing
// per-class counters.
const NumClasses = int(numClasses)

// String returns a short name for the class.
func (c Class) String() string {
	switch c {
	case Interest:
		return "INTEREST"
	case Data:
		return "DATA"
	case ExploratoryData:
		return "EXPLORATORY_DATA"
	case PositiveReinforcement:
		return "POSITIVE_REINFORCEMENT"
	case NegativeReinforcement:
		return "NEGATIVE_REINFORCEMENT"
	case CustodyAck:
		return "CUSTODY_ACK"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Valid reports whether c is a defined class.
func (c Class) Valid() bool { return c < numClasses }

// NodeID identifies a neighbor at the link layer. IDs may be ephemeral (the
// paper cites Elson & Estrin's random transaction identifiers); they only
// need to distinguish neighbors.
type NodeID uint32

// Broadcast is the link-layer broadcast destination.
const Broadcast NodeID = 0xFFFFFFFF

// String renders the node ID, with the broadcast address spelled out.
func (n NodeID) String() string {
	if n == Broadcast {
		return "BCAST"
	}
	return fmt.Sprintf("n%d", uint32(n))
}

// ID identifies a message origination for duplicate suppression: RandID is
// a random 32-bit value chosen by the originating diffusion instance and
// PktNum a per-instance counter, mirroring the (rdm_id, pkt_num) pair in
// the SCADDS implementation.
type ID struct {
	RandID uint32
	PktNum uint32
}

// String renders the id.
func (id ID) String() string { return fmt.Sprintf("%08x:%d", id.RandID, id.PktNum) }

// Message is one diffusion message.
type Message struct {
	Class Class
	// ID identifies the origination for loop and duplicate suppression.
	ID ID
	// PrevHop is the link-layer sender of this transmission; NextHop is
	// the link-layer destination (Broadcast or a specific neighbor).
	PrevHop, NextHop NodeID
	// HopCount counts link-layer hops since origination.
	HopCount uint8
	// Flow is the sampled trace-context flow ID, zero for unsampled
	// messages. Sampled messages carry it on the wire (flagged by the high
	// bit of the class byte); unsampled messages encode byte-identically
	// to the pre-trace format.
	Flow uint16
	// Attrs is the attribute vector naming the message's data or interest.
	Attrs attr.Vec
}

// headerSize is the fixed wire header length in bytes.
const headerSize = 1 + 1 + 4 + 4 + 4 + 4

// flowFlag marks a class byte whose header is followed by a 16-bit trace
// flow ID. Class values stay below it, so pre-trace decoders that validate
// the raw byte reject sampled messages instead of misparsing them.
const flowFlag = 0x80

// Size returns the encoded size of the message in bytes. This is the
// quantity the Figure 8 experiment accounts ("bytes sent from all diffusion
// modules").
func (m *Message) Size() int {
	n := headerSize + m.Attrs.Size()
	if m.Flow != 0 {
		n += 2
	}
	return n
}

// Clone returns a copy of m that shares nothing with it (attr.Vec.Own), as
// Unmarshal's result shares nothing with its input: keep a Clone of a lent m.
func (m *Message) Clone() *Message {
	c := *m
	c.Attrs, _ = m.Attrs.Own(nil, nil)
	return &c
}

// Marshal returns the wire encoding of m.
func (m *Message) Marshal() []byte { return m.AppendMarshal(make([]byte, 0, m.Size())) }

// AppendMarshal appends the wire encoding of m to b and returns the
// extended slice, so a sender can encode into a buffer it reuses.
func (m *Message) AppendMarshal(b []byte) []byte {
	cls := byte(m.Class)
	if m.Flow != 0 {
		cls |= flowFlag
	}
	b = append(b, cls, m.HopCount)
	b = binary.BigEndian.AppendUint32(b, m.ID.RandID)
	b = binary.BigEndian.AppendUint32(b, m.ID.PktNum)
	b = binary.BigEndian.AppendUint32(b, uint32(m.PrevHop))
	b = binary.BigEndian.AppendUint32(b, uint32(m.NextHop))
	if m.Flow != 0 {
		b = binary.BigEndian.AppendUint16(b, m.Flow)
	}
	return m.Attrs.AppendEncode(b)
}

// Unmarshal errors.
var (
	ErrShortHeader = errors.New("message: short header")
	ErrBadClass    = errors.New("message: invalid class")
)

// parseHeader decodes the fixed header (and the trace flow, when flagged)
// from the front of b into m, leaving m.Attrs alone, and returns the
// encoded attribute vector behind it.
func parseHeader(m *Message, b []byte) (attrs []byte, err error) {
	if len(b) < headerSize {
		return nil, ErrShortHeader
	}
	cls := Class(b[0] &^ flowFlag)
	if !cls.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrBadClass, b[0])
	}
	m.Class, m.HopCount, m.ID, m.Flow = cls, b[1], PeekID(b), 0
	m.PrevHop = NodeID(binary.BigEndian.Uint32(b[10:]))
	m.NextHop = NodeID(binary.BigEndian.Uint32(b[14:]))
	attrs = b[headerSize:]
	if b[0]&flowFlag != 0 {
		if len(attrs) < 2 {
			return nil, ErrShortHeader
		}
		m.Flow = binary.BigEndian.Uint16(attrs)
		attrs = attrs[2:]
	}
	return attrs, nil
}

// Unmarshal decodes a message from b. The message shares nothing with b;
// its string and blob values share one arena (see attr.DecodeVec).
func Unmarshal(b []byte) (*Message, error) {
	m := new(Message)
	rest, err := parseHeader(m, b)
	if err == nil {
		m.Attrs, _, err = attr.DecodeVec(rest)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// UnmarshalView decodes b into m, reusing m.Attrs' storage: it allocates
// nothing once that has the capacity. String and blob values are windows
// onto b (see attr.DecodeVecView), so m is valid only while b is never
// written again. On error m has no attributes and an unspecified header.
func UnmarshalView(m *Message, b []byte) error {
	rest, err := parseHeader(m, b)
	if err == nil {
		m.Attrs, _, err = attr.DecodeVecView(m.Attrs, rest)
	}
	if err != nil {
		m.Attrs = m.Attrs[:0]
	}
	return err
}

// Check returns the error Unmarshal would, without building the message: a
// link that must refuse a malformed payload before vouching for it.
func Check(b []byte) error {
	var hdr Message
	rest, err := parseHeader(&hdr, b)
	if err == nil {
		_, _, err = attr.ScanVec(rest)
	}
	return err
}

// PeekClass reads the class of an encoded message without decoding it,
// ignoring the trace-context flag bit. ok is false for an empty buffer.
func PeekClass(b []byte) (c Class, ok bool) {
	if len(b) == 0 {
		return 0, false
	}
	return Class(b[0] &^ flowFlag), true
}

// PeekID reads the origination ID of an encoded message without decoding
// it; the zero ID for buffers shorter than the fixed header.
func PeekID(b []byte) ID {
	if len(b) < headerSize {
		return ID{}
	}
	return ID{
		RandID: binary.BigEndian.Uint32(b[2:]),
		PktNum: binary.BigEndian.Uint32(b[6:]),
	}
}

// PeekTrace reads the trace context out of an encoded message without
// decoding it: the flow ID (zero when unsampled or when b is not a sampled
// message header) and the hop count. Link layers use it to stamp span
// events without parsing attribute vectors.
func PeekTrace(b []byte) (flow uint16, hop uint8) {
	if len(b) < headerSize+2 || b[0]&flowFlag == 0 {
		return 0, 0
	}
	return binary.BigEndian.Uint16(b[headerSize:]), b[1]
}

// IsData reports whether the message carries data (exploratory or not).
func (m *Message) IsData() bool {
	return m.Class == Data || m.Class == ExploratoryData
}

// String renders a compact diagnostic form.
func (m *Message) String() string {
	return fmt.Sprintf("%s id=%s %s->%s hops=%d %s",
		m.Class, m.ID, m.PrevHop, m.NextHop, m.HopCount, m.Attrs)
}
