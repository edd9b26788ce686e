package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"time"

	"diffusion/internal/message"
)

// Verb classifies an Event: what happened to a message at one node, or
// that a fault did.
type Verb uint8

// Event verbs. Recv through Drop are the steps of a sampled message's
// flight path, in rough lifecycle order; Send is a core transmission;
// Org and Fwd are the trace tap's originated and forwarded processing;
// Fault carries a fault kind in Event.Kind.
const (
	// Recv: the message arrived from a neighbor.
	Recv Verb = iota
	// Match: the message matched at least one interest entry.
	Match
	// Enqueue: the link layer accepted the message into its queue.
	Enqueue
	// Tx: the link layer put the last fragment/frame on the air/wire.
	Tx
	// CustodyAccept: a custodian took responsibility for the message.
	CustodyAccept
	// CustodyReplay: a custodian re-sent the message toward a path.
	CustodyReplay
	// Deliver: the message reached a local subscriber.
	Deliver
	// Drop: the message went no further here; Reason says why.
	Drop
	Send
	Fault
	Org
	Fwd
)

var verbNames = [...]string{
	Recv: "recv", Match: "match", Enqueue: "enqueue", Tx: "tx",
	CustodyAccept: "custody-accept", CustodyReplay: "custody-replay",
	Deliver: "deliver", Drop: "drop", Send: "send", Fault: "fault",
	Org: "org", Fwd: "fwd",
}

// String renders the verb as it appears in records and dumps.
func (v Verb) String() string {
	if int(v) < len(verbNames) {
		return verbNames[v]
	}
	return fmt.Sprintf("Verb(%d)", uint8(v))
}

// DropReason annotates a Drop.
type DropReason uint8

// Drop reasons.
const (
	DropNone DropReason = iota
	// DropNoGradient: data arrived but no interest entry matched.
	DropNoGradient
	// DropNoPath: a matching entry exists but has no reinforced gradient.
	DropNoPath
	// DropLinkRefused: the link layer refused the send (queue full, down).
	DropLinkRefused
	// DropTTL: the hop count reached the configured TTL.
	DropTTL
	// DropDuplicate: the (RandID, PktNum) pair was already seen.
	DropDuplicate
)

var reasonNames = [...]string{
	DropNone: "", DropNoGradient: "no-gradient", DropNoPath: "no-path",
	DropLinkRefused: "link-refused", DropTTL: "ttl", DropDuplicate: "duplicate",
}

// String renders the reason as it appears in a record's cause field.
func (r DropReason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("DropReason(%d)", uint8(r))
}

// Layer names the layer that recorded an event.
type Layer uint8

// Event layers.
const (
	LayerCore Layer = iota
	LayerMac
	LayerCustody
	LayerTransport
)

var layerNames = [...]string{
	LayerCore: "core", LayerMac: "mac", LayerCustody: "custody", LayerTransport: "transport",
}

// String renders the layer.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return fmt.Sprintf("Layer(%d)", uint8(l))
}

// Event is one observed fact at one node, in 32 bytes: a message received,
// sent, or traced through a layer, or a fault.
type Event struct {
	// At is node-local time: simulation time in the simulator, time since
	// process start in a live diffnode. A Ring stamps it.
	At   time.Duration
	Node uint32
	// Peer is the neighbor involved: the sender on recv (and the trace's
	// org/fwd), the destination on send/tx/enqueue (0 for broadcast on a
	// span), the replay target on custody-replay, the other endpoint of a
	// fault.
	Peer uint32
	// ID is the message origination id (for merging across flows that
	// collide on the 16-bit flow space).
	ID message.ID
	// Flow is the sampled flow ID, zero on unsampled messages.
	Flow uint16
	// Hop is the message's hop count when the event happened.
	Hop    uint8
	Verb   Verb
	Layer  Layer
	Reason DropReason
	Class  message.Class
	// Kind is the fault kind of a Fault event, named by whoever injected
	// it (see Ring.Dump).
	Kind uint8
}

// Record converts the event to the JSONL/Chrome trace-record schema: the
// trace's org/fwd name their neighbor From, every other verb Peer.
func (e Event) Record() Record {
	r := Record{
		US: e.At.Microseconds(), Node: e.Node, Layer: e.Layer.String(), Verb: e.Verb.String(),
		Class: e.Class.String(), ID: e.ID.String(), Peer: e.Peer, Hops: int(e.Hop),
		Cause: e.Reason.String(), Flow: e.Flow,
	}
	if e.Verb == Org || e.Verb == Fwd {
		r.From, r.Peer = e.Peer, 0
	}
	return r
}

// PeekEvent reads an encoded diffusion message's trace context into an
// event template — ID, flow, hop count and class — without decoding it.
// Flow is zero for unsampled payloads, which link layers do not record.
func PeekEvent(payload []byte) Event {
	flow, hop := message.PeekTrace(payload)
	if flow == 0 {
		return Event{}
	}
	cls, _ := message.PeekClass(payload)
	return Event{ID: message.PeekID(payload), Flow: flow, Hop: hop, Class: cls}
}

// Ring sizes the nodes are wired with by default.
const (
	DefaultFlightSize = 256
	DefaultSpanSize   = 4096
)

// Ring is a node's bounded record of its most recent Events: one record
// type, kept under two retention policies. A node's flight recorder is an
// always-on ring of every reception, transmission and fault — the last N,
// dumped when something goes wrong. Its span ring holds only sampled
// messages (flow non-zero) across every layer that touches them, which an
// offline analyzer (internal/flightpath) merges on (flow, hop, node) into
// per-message timelines. A reception is one Event written to both.
//
// The ring is built with its node's clock and stamps At itself, under its
// lock, so every layer writing to one ring shares one time base and the
// ring reads in time order. It is safe for concurrent use (a live diffnode
// records from its loop and its transport's goroutines while /spans
// scrapes it), Record never allocates, and a nil ring records nothing.
//
// The root package's Trace is not a Ring: it keeps a filter tap on every
// node that buffers Org/Fwd events for the whole run. No pin hashes the
// tap (the counts ledger hashes the air), so it can become a retention
// policy of the ring.
type Ring struct {
	mu  sync.Mutex
	now func() time.Duration
	buf []Event // a power of two long: event n lives at n & (len-1)
	// total counts the events ever recorded, Len plus overwrites.
	total uint64
}

// NewRing returns a ring holding the last size events, rounded up to a
// power of two (size <= 0 takes DefaultSpanSize), stamped by now.
func NewRing(size int, now func() time.Duration) *Ring {
	if size <= 0 {
		size = DefaultSpanSize
	}
	return &Ring{now: now, buf: make([]Event, 1<<bits.Len(uint(size-1)))}
}

// Record stamps e with the ring's clock and appends it, overwriting the
// oldest event when full.
func (r *Ring) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	e.At = r.now()
	r.buf[r.total&uint64(len(r.buf)-1)] = e
	r.total++
	r.mu.Unlock()
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lenLocked()
}

func (r *Ring) lenLocked() int {
	return int(min(r.total, uint64(len(r.buf))))
}

// Total returns the number of events ever recorded (Len plus overwrites).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Records returns the held events oldest-first (a copy).
func (r *Ring) Records() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.lenLocked())
	start := 0
	if len(out) == len(r.buf) {
		start = int(r.total & uint64(len(r.buf)-1))
	}
	k := copy(out, r.buf[start:len(out)])
	copy(out[k:], r.buf[:start])
	return out
}

// Dump writes the ring's contents as one line per event, oldest first.
// kindName renders fault kinds (nil prints the raw number).
func (r *Ring) Dump(w io.Writer, kindName func(uint8) string) {
	evs := r.Records()
	fmt.Fprintf(w, "flight recorder node: %d records held, %d total\n", len(evs), r.Total())
	for _, e := range evs {
		if e.Verb != Fault {
			fmt.Fprintf(w, "%12v node=%d %s %s id=%v peer=%d hops=%d\n",
				e.At, e.Node, e.Verb, e.Class, e.ID, e.Peer, e.Hop)
			continue
		}
		kind := fmt.Sprintf("kind=%d", e.Kind)
		if kindName != nil {
			kind = kindName(e.Kind)
		}
		if e.Peer != 0 {
			fmt.Fprintf(w, "%12v node=%d fault %s peer=%d\n", e.At, e.Node, kind, e.Peer)
		} else {
			fmt.Fprintf(w, "%12v node=%d fault %s\n", e.At, e.Node, kind)
		}
	}
}
