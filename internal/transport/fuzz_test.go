package transport

import (
	"bytes"
	"net/netip"
	"reflect"
	"slices"
	"sync/atomic"
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
		if isBundle(b) {
			t.Fatalf("a bundle decoded as a kind-%d frame", fr.kind)
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
			again.addr != a.addr {
			t.Fatalf("announce changed across the codec: %+v then %+v", a, again)
		}
	})
}

// fuzzEndpoint is endpoint 1 with every engine on and neighbor 2, on a wire
// of its own.
func fuzzEndpoint(t *testing.T) (*simNet, *UDP, *collector) {
	n, got := newSimNet(t), &collector{}
	u := n.endpoint(UDPConfig{
		ID: 1, Seed: 1, Neighbors: neighbors(2), Deliver: got.deliver,
		Liveness: &LivenessConfig{Interval: 100 * time.Millisecond},
		Reliable: &ReliableConfig{},
		Custody: &CustodyOptions{
			Accept: func(uint32, message.ID, []byte) (bool, bool) { return true, true },
		},
		Discovery: &DiscoveryConfig{VocabDigest: testVocab, Interval: 100 * time.Millisecond},
	})
	return n, u, got
}

// checkRecs fails t if u's discovery table is past its cap.
func checkRecs(t *testing.T, u *UDP) {
	t.Helper()
	if got := len(u.disco.recs); got > maxRecs {
		t.Fatalf("discovery table holds %d records, cap %d", got, maxRecs)
	}
}

// counters reads every counter of s, in declaration order.
func counters(s *Stats) []uint64 {
	var out []uint64
	for v, i := reflect.ValueOf(s).Elem(), 0; i < v.NumField(); i++ {
		out = append(out, v.Field(i).Addr().Interface().(*atomic.Uint64).Load())
	}
	return out
}

// FuzzEndpointDatagram hands arbitrary bytes from an arbitrary source to
// the receive entry of an endpoint with every engine on, then lets a
// second of virtual time play out. Nothing may panic, every reject must
// be counted in Stats.RecvDropped — once — only a membership frame may
// grow the peer table, and the discovery table stays within its cap. A bundle must leave the endpoint exactly as its
// frames would have, arriving one datagram each: the same deliveries,
// duplicate windows and counters, but for one RecvDropped if its tail is
// malformed (or it has no frames at all).
func FuzzEndpointDatagram(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, ip uint32, port uint16) {
		n, u, got := fuzzEndpoint(t)
		from := netip.AddrPortFrom(netip.AddrFrom4([4]byte{byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)}), port)

		if isBundle(b) {
			_, o, want := fuzzEndpoint(t)
			frames, malformed := splitBundle(b)
			for _, inner := range frames {
				o.receiveFrame(inner, from)
			}
			if malformed {
				o.stats.RecvDropped.Add(1)
			}
			u.receive(b, from)
			checkRecs(t, u)
			if g, w := counters(u.Stats()), counters(o.Stats()); !slices.Equal(g, w) {
				t.Fatalf("bundle %x left counters\n%v, its frames one by one\n%v", b, g, w)
			}
			if !slices.Equal(got.got, want.got) || !slices.Equal(got.from, want.from) {
				t.Fatalf("bundle %x delivered %q, its frames one by one %q", b, got.got, want.got)
			}
			if g, w := *u.peers[2], *o.peers[2]; g.relDup != w.relDup || g.cusDup != w.cusDup || g.dataRecv != w.dataRecv {
				t.Fatalf("bundle %x left neighbor 2 as %+v, its frames one by one %+v", b, g, w)
			}
			if !slices.Equal(u.Neighbors(), o.Neighbors()) {
				t.Fatalf("bundle %x left the peer table as %v, its frames one by one %v", b, u.Neighbors(), o.Neighbors())
			}
			n.run(time.Second)
			u.Close()
			o.Close()
			return
		}

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
		checkRecs(t, u)
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
