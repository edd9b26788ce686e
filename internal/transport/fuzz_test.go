package transport

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"
	"time"

	"diffusion/internal/message"
)

// The fuzz targets cover every decoder a datagram from the network
// reaches: the frame header, the announce payload, and the whole receive
// entry with every engine behind it. The seed corpora are the files under
// testdata/fuzz, named for what each one is.

func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := decodeFrame(b)
		if err != nil {
			return
		}
		if fr.kind >= numKinds {
			t.Fatalf("decoded unknown kind %d", fr.kind)
		}
		// What decoded must survive the codec unchanged.
		again, err := decodeFrame(appendFrame(nil, fr.kind, fr.from, fr.dst, fr.boot, fr.seq, fr.flow, fr.hop, fr.payload))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !bytes.Equal(again.payload, fr.payload) {
			t.Fatalf("payload changed across the codec: %q then %q", fr.payload, again.payload)
		}
		again.payload, fr.payload = nil, nil
		if fr.flow == 0 {
			fr.hop = 0 // an extension with flow 0 is not re-emitted; its hop count goes with it
		}
		if again.kind != fr.kind || again.from != fr.from || again.dst != fr.dst || again.boot != fr.boot ||
			again.seq != fr.seq || again.flow != fr.flow || again.hop != fr.hop {
			t.Fatalf("header changed across the codec: %+v then %+v", fr, again)
		}
	})
}

func FuzzDecodeAnnounce(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := decodeAnnounce(b)
		if err != nil {
			return
		}
		for _, g := range a.gossip {
			if !g.addr.IsValid() || g.addr.Port() == 0 || g.addr.Addr().Zone() != "" {
				t.Fatalf("decoded a gossip entry that is not a plain literal: %v", g.addr)
			}
		}
		again, err := decodeAnnounce(encodeAnnounce(a))
		if err != nil {
			t.Fatalf("re-encoded announce does not decode: %v", err)
		}
		if !slices.Equal(again.gossip, a.gossip) {
			t.Fatalf("gossip changed across the codec: %v then %v", a.gossip, again.gossip)
		}
		again.gossip, a.gossip = nil, nil
		if again.flags != a.flags || again.digest != a.digest || again.httpPort != a.httpPort ||
			again.energy != a.energy || again.addr != a.addr {
			t.Fatalf("announce changed across the codec: %+v then %+v", a, again)
		}
	})
}

// FuzzEndpointDatagram hands arbitrary bytes from an arbitrary source to
// the receive entry of an endpoint with every engine on, then lets a
// second of virtual time play out. Nothing may panic, every reject must
// be counted in Stats.RecvDropped — once — and only a membership frame
// may grow the peer table.
func FuzzEndpointDatagram(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, ip uint32, port uint16) {
		n := newSimNet(t)
		u := n.endpoint(UDPConfig{
			ID: 1, Seed: 1, Neighbors: neighbors(2),
			Liveness: &LivenessConfig{Interval: 100 * time.Millisecond},
			Reliable: &ReliableConfig{},
			Custody: &CustodyOptions{
				Accept: func(uint32, message.ID, []byte) (bool, bool) { return true, true },
			},
			Discovery: &DiscoveryConfig{VocabDigest: testVocab, Interval: 100 * time.Millisecond},
		})
		from := netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}), port)

		want := uint64(0)
		fr, err := decodeFrame(b)
		membership := err == nil && (fr.kind == kindAnnounce || fr.kind == kindProbe || fr.kind == kindLeave)
		switch known := err == nil && fr.from == 2; {
		case err != nil, fr.from == u.id, fr.dst != Broadcast && fr.dst != u.id, !known && !membership:
			want = 1
		case fr.kind == kindAnnounce:
			if _, err := decodeAnnounce(fr.payload); err != nil {
				want = 1
			}
		case fr.kind == kindCustody:
			if _, err := message.Unmarshal(fr.payload); err != nil {
				want = 1
			}
		}

		u.receive(b, from)
		if got := u.Stats().RecvDropped.Load(); got != want {
			t.Fatalf("RecvDropped = %d, want %d for %x", got, want, b)
		}
		if got := u.Neighbors(); !membership && !slices.Equal(got, []uint32{2}) {
			t.Fatalf("a kind-%d frame changed the peer table to %v", fr.kind, got)
		}
		n.run(time.Second)
		u.Close()
	})
}
