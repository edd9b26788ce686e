package transport

import (
	"testing"
)

// BenchmarkUDPRoundTrip measures one request/response pair of framed
// datagrams across the loopback interface between two endpoints — the
// live transport's cost floor. It is a tool for working on this package;
// the numbers of record are cmd/diffbench's transport.* metrics
// (`go run ./cmd/diffbench -workload line5_udp -trace 1`). Payload is 64
// bytes, about one interest with a few attributes.
func BenchmarkUDPRoundTrip(b *testing.B) {
	pong := make(chan struct{}, 1)
	var responder *UDP
	resp, err := ListenUDP(UDPConfig{ID: 2, Listen: "127.0.0.1:0",
		Deliver: func(from uint32, p []byte) {
			responder.Send(1, p)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Close()
	responder = resp

	req, err := ListenUDP(UDPConfig{ID: 1, Listen: "127.0.0.1:0",
		Neighbors: map[uint32]string{2: resp.LocalAddr().String()},
		Deliver:   func(from uint32, p []byte) { pong <- struct{}{} },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer req.Close()

	// The responder has no neighbor table until the requester is bound;
	// rebuild it now both addresses exist.
	resp.Close()
	resp2, err := ListenUDP(UDPConfig{ID: 2, Listen: resp.LocalAddr().String(),
		Neighbors: map[uint32]string{1: req.LocalAddr().String()},
		Deliver: func(from uint32, p []byte) {
			responder.Send(1, p)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer resp2.Close()
	responder = resp2

	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := req.Send(2, payload); err != nil {
			b.Fatal(err)
		}
		<-pong
	}
}

// BenchmarkMeshRoundTrip is the in-process baseline: the same ping/pong
// without sockets, isolating framing + accounting + goroutine handoff
// cost from kernel UDP cost.
func BenchmarkMeshRoundTrip(b *testing.B) {
	m := NewMesh(1)
	defer m.Close()
	pong := make(chan struct{}, 1)
	var l1, l2 *MeshLink
	l1 = m.Attach(1, func(from uint32, p []byte) { pong <- struct{}{} })
	l2 = m.Attach(2, func(from uint32, p []byte) { l2.Send(1, p) })
	m.Connect(1, 2)

	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l1.Send(2, payload); err != nil {
			b.Fatal(err)
		}
		<-pong
	}
}
