package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"diffusion/internal/core"
	"diffusion/internal/message"
)

// Tracing from outside: the benchmark wraps only the seams it owns when it
// assembles a node — the core.Link handed to core.NewNode, the Deliver
// callback handed to the transport, the closure posted to the loop and the
// subscription callback — and records, for one plain Data message in
// sampleEvery, when each seam was crossed. Nothing inside the program is
// instrumented. Records stay in memory; spans and self times are derived
// after the run.

const sampleEvery = 16

var epoch = time.Now()

// nowNS is the monotonic clock every stamp and span shares.
func nowNS() int64 { return int64(time.Since(epoch)) }

const (
	recSend     = iota // a..b: inside the wrapped Link.Send
	recHandle          // a: handed to the loop, b..c: closure running (Node.Send or Node.Receive)
	recCallback        // a: subscription callback entered at the sink
)

type rec struct {
	kind    uint8
	phase   uint8
	pkt     uint32 // message.ID.PktNum of the sampled message
	a, b, c int64
}

// tracer gates recording; phase labels what the generator is doing.
type tracer struct {
	on     atomic.Bool
	phase  atomic.Uint32
	randID atomic.Uint32 // the source's message.ID.RandID, as seen on the wire
	nodes  []*nodeTrace
}

// nodeTrace is one node's record buffer. Every append happens on that
// node's loop goroutine, so it needs no lock.
type nodeTrace struct {
	t    *tracer
	recs []rec
	// sent is the PktNum of the sampled message the running closure handed
	// to the link, so the source closure learns the ID Node.Send assigned.
	sent uint32
}

func (t *tracer) node() *nodeTrace {
	nt := &nodeTrace{t: t}
	t.nodes = append(t.nodes, nt)
	return nt
}

func (nt *nodeTrace) add(r rec) {
	r.phase = uint8(nt.t.phase.Load())
	nt.recs = append(nt.recs, r)
}

// sampledPkt returns the packet number of an encoded plain Data message
// chosen for tracing, or 0.
func sampledPkt(payload []byte) uint32 {
	if c, ok := message.PeekClass(payload); !ok || c != message.Data {
		return 0
	}
	if pkt := message.PeekID(payload).PktNum; pkt%sampleEvery == 0 {
		return pkt
	}
	return 0
}

// tracedLink times the transport's Send from the caller's side.
type tracedLink struct {
	core.Link
	nt *nodeTrace
}

func (l tracedLink) Send(dst uint32, payload []byte) error {
	if !l.nt.t.on.Load() {
		return l.Link.Send(dst, payload)
	}
	pkt := sampledPkt(payload)
	if pkt == 0 {
		return l.Link.Send(dst, payload)
	}
	l.nt.t.randID.Store(message.PeekID(payload).RandID)
	a := nowNS()
	err := l.Link.Send(dst, payload)
	l.nt.add(rec{kind: recSend, pkt: pkt, a: a, b: nowNS()})
	l.nt.sent = pkt
	return err
}

// hop is one sampled message's passage through one node.
type hop struct {
	handle, send rec
	hasHandle    bool
	hasSend      bool
}

// flight is one sampled message end to end: hops[0] is the source.
type flight struct {
	pkt      uint32
	hops     []hop
	callback int64
}

// flights groups one phase's records by message, keeping only messages
// seen at every seam (a message cut by a phase boundary is dropped).
func (t *tracer) flights(phase uint32) []flight {
	n := len(t.nodes)
	byPkt := map[uint32]*flight{}
	get := func(pkt uint32) *flight {
		f := byPkt[pkt]
		if f == nil {
			f = &flight{pkt: pkt, hops: make([]hop, n)}
			byPkt[pkt] = f
		}
		return f
	}
	for i, nt := range t.nodes {
		for _, r := range nt.recs {
			if uint32(r.phase) != phase {
				continue
			}
			f := get(r.pkt)
			switch r.kind {
			case recSend:
				f.hops[i].send, f.hops[i].hasSend = r, true
			case recHandle:
				f.hops[i].handle, f.hops[i].hasHandle = r, true
			case recCallback:
				f.callback = r.a
			}
		}
	}
	var out []flight
	for _, f := range byPkt {
		ok := f.callback != 0
		for i, h := range f.hops {
			if !h.hasHandle || (i < n-1 && !h.hasSend) {
				ok = false
			}
		}
		if ok {
			out = append(out, *f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pkt < out[j].pkt })
	return out
}

// layerTimes are the self times along sampled flights, in ns.
type layerTimes struct {
	queueWait, linkSend, wire     []int64
	coreSend, coreRecv, coreDeliv []int64
	coverage                      []float64
	waitByNode                    [][]int64
	flights                       int
}

// selfTimes splits each flight into the spans between seams. A layer's self
// time is its span minus the child spans inside it: Node.Send and
// Node.Receive contain the nested Link.Send.
func selfTimes(fs []flight, nodes int) layerTimes {
	lt := layerTimes{waitByNode: make([][]int64, nodes), flights: len(fs)}
	for _, f := range fs {
		last := len(f.hops) - 1
		var sum int64
		for i, h := range f.hops {
			wait := h.handle.b - h.handle.a
			lt.queueWait = append(lt.queueWait, wait)
			lt.waitByNode[i] = append(lt.waitByNode[i], wait)
			sum += wait
			busy := h.handle.c - h.handle.b
			if i == last {
				lt.coreDeliv = append(lt.coreDeliv, busy)
				sum += busy
				continue
			}
			send := h.send.b - h.send.a
			wire := f.hops[i+1].handle.a - h.send.b
			lt.linkSend = append(lt.linkSend, send)
			lt.wire = append(lt.wire, wire)
			if i == 0 {
				lt.coreSend = append(lt.coreSend, busy-send)
			} else {
				lt.coreRecv = append(lt.coreRecv, busy-send)
			}
			sum += busy + wire
		}
		if e2e := f.callback - f.hops[0].handle.a; e2e > 0 {
			lt.coverage = append(lt.coverage, float64(sum)/float64(e2e))
		}
	}
	return lt
}

func medianNS(xs []int64) float64 { return pctNS(xs, 0.5) }

func pctNS(xs []int64, p float64) float64 {
	s := append([]int64(nil), xs...)
	sortInt64(s)
	return float64(percentile(s, p))
}

// spanLine is one span of the JSONL trace file. Parent is the span that
// caused this one; spans of one message share ID.
type spanLine struct {
	Name   string `json:"name"`
	Node   int    `json:"node"`
	ID     string `json:"id"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// writeSpans writes every complete flight of the labelled phases as spans,
// one JSON object a line.
func (t *tracer) writeSpans(path string, labels []string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for phase, label := range labels {
		if label == "" {
			continue
		}
		for _, fl := range t.flights(uint32(phase)) {
			id := message.ID{RandID: t.randID.Load(), PktNum: fl.pkt}.String()
			last := len(fl.hops) - 1
			prev := ""
			emit := func(name string, node int, a, b int64, parent string) string {
				enc.Encode(spanLine{Name: name, Node: node + 1, ID: id, Phase: label, Start: a, End: b, Parent: parent})
				return fmt.Sprintf("%s@%d", name, node+1)
			}
			for i, h := range fl.hops {
				wait := emit("rt.queue_wait", i, h.handle.a, h.handle.b, prev)
				switch {
				case i == last:
					emit("core.deliver", i, h.handle.b, h.handle.c, wait)
				case i == 0:
					prev = emit("core.send", i, h.handle.b, h.handle.c, wait)
				default:
					prev = emit("core.receive", i, h.handle.b, h.handle.c, wait)
				}
				if i < last {
					send := emit("transport.send", i, h.send.a, h.send.b, prev)
					prev = emit("transport.wire", i+1, h.send.b, fl.hops[i+1].handle.a, send)
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}
