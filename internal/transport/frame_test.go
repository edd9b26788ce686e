package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/message"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
)

// TestFrameTraceRoundTrip checks the v2 trace extension: flow and hop
// survive the codec, the kind flag is masked off, and the payload is
// unchanged.
func TestFrameTraceRoundTrip(t *testing.T) {
	payload := []byte("event-bytes")
	b := appendFrame(nil, kindReliable, 4, 3, 0xB007, 99, 0x1A2B, 5, payload)
	if b[2]&kindTraceFlag == 0 {
		t.Fatal("traced frame must set the kind flag bit")
	}
	f, err := decodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if f.kind != kindReliable || f.flow != 0x1A2B || f.hop != 5 {
		t.Errorf("decoded kind=%d flow=%#x hop=%d, want %d %#x %d",
			f.kind, f.flow, f.hop, kindReliable, 0x1A2B, 5)
	}
	if f.from != 4 || f.dst != 3 || f.boot != 0xB007 || f.seq != 99 {
		t.Errorf("header fields wrong: %+v", f)
	}
	if !bytes.Equal(f.payload, payload) {
		t.Errorf("payload %q, want %q", f.payload, payload)
	}
}

// TestFramePreExtensionPeer checks both directions of compatibility with
// peers that predate the trace extension: their frames (no flag bit)
// decode as unsampled rather than erroring, and a zero flow never emits
// the extension, keeping our frames byte-identical to the old layout.
func TestFramePreExtensionPeer(t *testing.T) {
	legacy := appendFrame(nil, kindData, 1, 2, 3, 4, 0, 0, []byte("x"))
	if legacy[2]&kindTraceFlag != 0 || len(legacy) != headerSize+1 {
		t.Fatal("untraced frame must not set the flag bit or carry the extension")
	}
	if got := appendFrame(nil, kindData, 1, 2, 3, 4, 0, 9, []byte("x")); !bytes.Equal(got, legacy) {
		t.Error("zero flow must encode byte-identically to the legacy frame")
	}
	f, err := decodeFrame(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if f.flow != 0 || f.hop != 0 {
		t.Errorf("legacy frame decoded with trace context flow=%#x hop=%d", f.flow, f.hop)
	}
	if string(f.payload) != "x" {
		t.Errorf("legacy payload %q", f.payload)
	}
}

// TestFrameTraceErrors: a flagged frame truncated before its extension is
// a short frame, and the flag does not smuggle unknown kinds past
// validation.
func TestFrameTraceErrors(t *testing.T) {
	b := appendFrame(nil, kindData, 1, 2, 3, 4, 7, 1, nil)
	if _, err := decodeFrame(b[:headerSize+1]); !errors.Is(err, errShortFrame) {
		t.Errorf("truncated extension: %v", err)
	}
	bad := append([]byte(nil), b...)
	bad[2] = kindTraceFlag | numKinds
	if _, err := decodeFrame(bad); !errors.Is(err, errBadKind) {
		t.Errorf("flagged unknown kind: %v", err)
	}
}

// TestUDPTraceSpans sends a sampled diffusion message between two UDP
// endpoints with span rings and checks that the transport stamps a tx
// span on the sender and a recv span on the receiver, carrying the flow
// through the frame extension.
func TestUDPTraceSpans(t *testing.T) {
	m := &message.Message{
		Class:    message.Data,
		ID:       message.ID{RandID: 0xFEED, PktNum: 3},
		PrevHop:  1,
		NextHop:  2,
		HopCount: 4,
		Flow:     0x77AA,
		Attrs:    attr.Vec{attr.ClassIsData()},
	}
	payload := m.Marshal()

	got := make(chan []byte, 1)
	rxSpans := telemetry.NewRing(16, sim.NewRealClock().Now)
	rx, err := ListenUDP(UDPConfig{
		ID: 2, Listen: "127.0.0.1:0",
		Neighbors: map[uint32]string{1: "127.0.0.1:1"}, // fixed below
		Deliver:   func(from uint32, p []byte) { got <- p },
		Spans:     rxSpans,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()

	txSpans := telemetry.NewRing(16, sim.NewRealClock().Now)
	tx, err := ListenUDP(UDPConfig{
		ID: 1, Listen: "127.0.0.1:0",
		Neighbors: map[uint32]string{2: rx.LocalAddr().String()},
		Deliver:   func(uint32, []byte) {},
		Spans:     txSpans,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	// Point rx's neighbor table at tx's real port so the sender passes
	// validation.
	rx.peersMu.Lock()
	rx.put(1, addrPort(tx.LocalAddr()), true)
	rx.peersMu.Unlock()

	if err := tx.Send(2, payload); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if !bytes.Equal(p, payload) {
			t.Error("payload corrupted through the traced frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("payload not delivered")
	}

	txs := txSpans.Records()
	if len(txs) != 1 || txs[0].Verb != telemetry.Tx || txs[0].Flow != 0x77AA ||
		txs[0].Hop != 4 || txs[0].Peer != 2 || txs[0].ID != m.ID {
		t.Errorf("sender spans: %+v", txs)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rxSpans.Total() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rxs := rxSpans.Records()
	if len(rxs) != 1 || rxs[0].Verb != telemetry.Recv || rxs[0].Flow != 0x77AA ||
		rxs[0].Hop != 4 || rxs[0].Peer != 1 || rxs[0].Node != 2 {
		t.Errorf("receiver spans: %+v", rxs)
	}

	// Unsampled payloads must not produce spans.
	m.Flow = 0
	if err := tx.Send(2, m.Marshal()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("unsampled payload not delivered")
	}
	if txSpans.Total() != 1 || rxSpans.Total() != 1 {
		t.Errorf("unsampled send recorded spans: tx=%d rx=%d", txSpans.Total(), rxSpans.Total())
	}
}
