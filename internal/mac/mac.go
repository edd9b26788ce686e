// Package mac implements the paper's deliberately primitive link layer:
// carrier-sense multiple access with random backoff but "lacking RTS/CTS or
// ARQ", where every diffusion message is "broken into several 27-byte
// fragments" and "loss of a single fragment results in loss of the whole
// message" (section 6.1). The experiments depend on these weaknesses — they
// are what makes the testbed congest — so the MAC reproduces them rather
// than fixing them.
package mac

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
)

// Params configures the MAC.
type Params struct {
	// FragmentPayload is the number of message bytes per fragment
	// (paper: 27).
	FragmentPayload int
	// MaxPayload bounds a single message.
	MaxPayload int
	// SlotTime is the backoff slot duration.
	SlotTime time.Duration
	// MaxBackoffSlots bounds the random backoff window.
	MaxBackoffSlots int
	// MaxAttempts bounds carrier-sense retries per fragment before the
	// whole message is dropped.
	MaxAttempts int
	// QueueLimit bounds the transmit queue (drop-tail beyond it).
	QueueLimit int
	// InterFragGap is idle time between fragments of one message.
	InterFragGap time.Duration
	// ReassemblyTimeout expires incomplete partial messages.
	ReassemblyTimeout time.Duration
	// TxTurnaround is the radio's receive-to-transmit turnaround: the
	// delay between a clear carrier-sense decision and energy on the air.
	// The transmission is committed when carrier sense passes and cannot
	// be aborted during the turnaround, exactly like the paper's
	// Radiometrix hardware. Zero means DefaultTxTurnaround.
	TxTurnaround time.Duration
	// DutyCycle enables energy-aware duty cycling (the paper's section
	// 6.1 analysis: "energy-conscious protocols like PAMAS or TDMA are
	// necessary for long-lived sensor networks"): the radio listens only
	// during the first DutyCycle fraction of every CyclePeriod, on a
	// schedule shared network-wide (as in TDMA/S-MAC-style designs).
	// Transmissions defer to active windows; frames that finish arriving
	// during sleep are lost. 0 or >=1 disables duty cycling.
	DutyCycle float64
	// CyclePeriod is the duty-cycle schedule period (default 500 ms when
	// duty cycling is enabled).
	CyclePeriod time.Duration
}

// DefaultParams returns testbed-like MAC parameters.
func DefaultParams() Params {
	return Params{
		FragmentPayload:   27,
		MaxPayload:        1024,
		SlotTime:          2 * time.Millisecond,
		MaxBackoffSlots:   64,
		MaxAttempts:       16,
		QueueLimit:        20,
		InterFragGap:      time.Millisecond,
		ReassemblyTimeout: 5 * time.Second,
		TxTurnaround:      DefaultTxTurnaround,
	}
}

// DefaultTxTurnaround is the receive-to-transmit turnaround assumed when
// Params.TxTurnaround is zero.
const DefaultTxTurnaround = time.Millisecond

// Broadcast is the link-layer broadcast address.
const Broadcast uint32 = 0xFFFFFFFF

// fragment header layout: dst(2) src(2) seq(2) idx(1) count(1). Node IDs
// are 16-bit on the air (the paper's radios used small ephemeral
// identifiers); the 32-bit broadcast address maps to 0xFFFF.
const fragHeaderSize = 8

// wireBroadcast is the 16-bit on-air broadcast address.
const wireBroadcast uint16 = 0xFFFF

// toWireID narrows a node ID for the air. IDs above 16 bits are a
// configuration error.
func toWireID(id uint32) uint16 {
	if id == Broadcast {
		return wireBroadcast
	}
	if id >= uint32(wireBroadcast) {
		panic(fmt.Sprintf("mac: node id %d exceeds the 16-bit air format", id))
	}
	return uint16(id)
}

// fromWireID widens an on-air ID.
func fromWireID(id uint16) uint32 {
	if id == wireBroadcast {
		return Broadcast
	}
	return uint32(id)
}

// Handler receives reassembled messages. The payload is lent for the call:
// it is the buffer the message was reassembled in, which the MAC clears and
// reuses once the handler returns, so the handler copies what it keeps.
type Handler func(from uint32, payload []byte)

// Errors returned by Send.
var (
	ErrTooLarge  = errors.New("mac: payload exceeds MaxPayload")
	ErrQueueFull = errors.New("mac: transmit queue full")
	ErrDetached  = errors.New("mac: node is detached (crashed)")
)

// Stats counts MAC activity.
type Stats struct {
	MessagesQueued    int
	MessagesSent      int // all fragments transmitted
	MessagesDropped   int // queue overflow or backoff exhaustion
	MessagesDelivered int // reassembled and passed up
	FragmentsSent     int
	FragmentsReceived int
	Backoffs          int
	BackoffTime       time.Duration // cumulative carrier-sense backoff delay
	ReassemblyExpired int
	SleepDrops        int // frames missed because the radio was asleep
	SleepDeferrals    int // transmissions postponed to an active window
}

// Mac is one node's link layer instance.
type Mac struct {
	env     sim.Env
	tx      *radio.Transceiver
	params  Params
	handler Handler

	queue    []*outMsg
	sending  bool
	detached bool
	seq      uint16

	// reasm holds the messages under reassembly in the order they started,
	// which under one fixed timeout is also deadline order. A new message
	// takes the smallest of bufs with room for it; see maxBufs.
	reasm []partial
	bufs  [][]byte
	// idle holds the queue entries not in use. An entry is made only when
	// none is idle, and the queue holds at most QueueLimit, so there are
	// never more than QueueLimit entries, queued and idle together.
	idle []*outMsg

	// attemptEv and fireEv are the transmit pump's two steps, bound once in
	// Attach; at most one of them is pending at any time. expiryEv is the
	// reassembly timer, pending while reasm is not empty, for the oldest
	// deadline or earlier.
	attemptEv, fireEv, expiryEv sim.Event

	// backoffHist, when instrumented, observes every backoff wait (µs).
	backoffHist *telemetry.Histogram

	// spans, when set via Trace, records flight-path events for sampled
	// payloads.
	spans *telemetry.Ring

	Stats Stats
}

// outMsg is one queued message, pooled per Mac: train keeps its array
// across uses, as the radio copies what it sends.
type outMsg struct {
	dst uint32
	// train holds the count framed fragments, headers included, back to
	// back; see frame.
	train    []byte
	count    int
	next     int
	attempts int
	// span is the trace-context template captured at enqueue time, so the
	// eventual tx (or drop) event carries the same flow and message ID;
	// its flow is zero when the message is not sampled.
	span telemetry.Event
}

type reasmKey struct {
	src uint32
	seq uint16
}

// partial is one message under reassembly, a train of count fragments. The
// radio lends a frame only for the call, so fragment i is copied to
// buf[i*FragmentPayload:], in whatever order the fragments come, and got has
// bit i set. buf is count*FragmentPayload long until the last fragment cuts
// it to the payload's length.
type partial struct {
	key      reasmKey
	count    int
	got      uint64
	deadline time.Duration
	buf      []byte
}

// maxFragments bounds a train, so that got has a bit for every fragment.
const maxFragments = 64

// maxBufs bounds the idle reassembly buffers a MAC keeps, in ascending
// capacity: at most maxBufs of them, each of at most maxFragments times
// FragmentPayload bytes, the size of the largest train it heard. Each
// buffer is made to its train's size, so the idle ones are the largest
// that came back, and a new train takes the smallest with room.
const maxBufs = 16

// byCap orders buffers by capacity.
func byCap(b []byte, n int) int { return cmp.Compare(cap(b), n) }

// takeBuf returns n bytes: the smallest idle buffer with room, or a new one.
func (m *Mac) takeBuf(n int) []byte {
	i, _ := slices.BinarySearchFunc(m.bufs, n, byCap)
	if i == len(m.bufs) {
		return make([]byte, n)
	}
	b := m.bufs[i][:n]
	m.bufs = slices.Delete(m.bufs, i, i+1)
	return b
}

// putBuf makes b idle; when maxBufs already are, the smallest of them and b
// is dropped.
func (m *Mac) putBuf(b []byte) {
	i, _ := slices.BinarySearchFunc(m.bufs, cap(b), byCap)
	if len(m.bufs) < maxBufs {
		m.bufs = slices.Insert(m.bufs, i, b)
	} else if i > 0 {
		copy(m.bufs, m.bufs[1:i])
		m.bufs[i-1] = b
	}
}

// expire is the reassembly timer: it expires what is due and re-arms for
// the oldest message left.
func (m *Mac) expire() {
	m.expireDue()
	if len(m.reasm) > 0 {
		m.env.Arm(&m.expiryEv, m.reasm[0].deadline-m.env.Now())
	}
}

// expireDue drops every message whose deadline has come, oldest first.
func (m *Mac) expireDue() {
	n := 0
	for n < len(m.reasm) && m.reasm[n].deadline <= m.env.Now() {
		n++
	}
	if n > 0 {
		m.Stats.ReassemblyExpired += n
		for _, p := range m.reasm[:n] {
			m.putBuf(p.buf)
		}
		m.reasm = slices.Delete(m.reasm, 0, n)
	}
}

// Attach creates a Mac for node id on the channel, delivering reassembled
// messages to h. env must be the node's own scheduling context (its
// sim.Port).
func Attach(env sim.Env, ch *radio.Channel, id uint32, p Params, h Handler) *Mac {
	validate(p)
	m := &Mac{env: env, params: p, handler: h, bufs: make([][]byte, 0, maxBufs)}
	m.attemptEv.Bind(m.attempt)
	m.fireEv.Bind(m.fire)
	m.expiryEv.Bind(m.expire)
	m.tx = ch.Attach(id, m.onFrame)
	return m
}

func validate(p Params) {
	if p.FragmentPayload <= 0 || p.MaxPayload <= 0 || p.MaxAttempts <= 0 ||
		p.QueueLimit <= 0 || p.MaxBackoffSlots <= 0 || p.SlotTime <= 0 {
		panic(fmt.Sprintf("mac: invalid params %+v", p))
	}
	if p.DutyCycle < 0 {
		panic("mac: DutyCycle must be non-negative")
	}
	if (p.MaxPayload+p.FragmentPayload-1)/p.FragmentPayload > maxFragments {
		panic(fmt.Sprintf("mac: MaxPayload %d needs more than %d fragments", p.MaxPayload, maxFragments))
	}
}

// Turnaround returns the effective receive-to-transmit turnaround.
func (p Params) Turnaround() time.Duration {
	if p.TxTurnaround > 0 {
		return p.TxTurnaround
	}
	return DefaultTxTurnaround
}

// dutyCycled reports whether duty cycling is active.
func (m *Mac) dutyCycled() bool {
	return m.params.DutyCycle > 0 && m.params.DutyCycle < 1
}

// cyclePeriod returns the schedule period.
func (m *Mac) cyclePeriod() time.Duration {
	if m.params.CyclePeriod > 0 {
		return m.params.CyclePeriod
	}
	return 500 * time.Millisecond
}

// awake reports whether the radio is in its active window at time now.
func (m *Mac) awake(now time.Duration) bool {
	if !m.dutyCycled() {
		return true
	}
	period := m.cyclePeriod()
	phase := now % period
	return float64(phase) < m.params.DutyCycle*float64(period)
}

// activeRemaining returns how much of the current active window is left
// (zero while asleep).
func (m *Mac) activeRemaining(now time.Duration) time.Duration {
	if !m.dutyCycled() {
		return time.Duration(1<<62 - 1)
	}
	period := m.cyclePeriod()
	phase := now % period
	active := time.Duration(m.params.DutyCycle * float64(period))
	if phase >= active {
		return 0
	}
	return active - phase
}

// nextWake returns the start of the next active window.
func (m *Mac) nextWake(now time.Duration) time.Duration {
	period := m.cyclePeriod()
	return now - now%period + period
}

// ID returns the node's link-layer identifier.
func (m *Mac) ID() uint32 { return m.tx.ID() }

// Radio exposes the transceiver (for energy and traffic accounting).
func (m *Mac) Radio() *radio.Transceiver { return m.tx }

// Detach freezes the link layer for a crashed node: the transmit queue is
// dropped, pending reassembly state is discarded, and until Restart every
// Send errors and every incoming frame is ignored. The channel-level radio
// silence is the caller's job (radio.Channel.SetNodeDown); Detach makes
// sure no queued traffic survives the crash.
func (m *Mac) Detach() {
	if m.detached {
		return
	}
	m.detached = true
	m.Stats.MessagesDropped += len(m.queue)
	m.queue = nil
	m.sending = false
	// The pump step in flight dies with the queue: left pending, it would
	// be armed a second time by the first Send after Restart.
	m.attemptEv.Cancel()
	m.fireEv.Cancel()
	m.expiryEv.Cancel()
	m.reasm = slices.Delete(m.reasm, 0, len(m.reasm))
}

// Restart brings a detached link layer back up with an empty queue, as a
// freshly booted node's MAC would be. Restarting an attached MAC is a
// no-op.
func (m *Mac) Restart() { m.detached = false }

// Send queues payload for dst (a neighbor ID or Broadcast). The message is
// fragmented; delivery is best-effort.
func (m *Mac) Send(dst uint32, payload []byte) error {
	if m.detached {
		return ErrDetached
	}
	if len(payload) > m.params.MaxPayload {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), m.params.MaxPayload)
	}
	if len(m.queue) >= m.params.QueueLimit {
		m.Stats.MessagesDropped++
		return ErrQueueFull
	}
	m.seq++
	var om *outMsg
	if l := len(m.idle); l > 0 {
		om, m.idle = m.idle[l-1], m.idle[:l-1]
	} else {
		om = &outMsg{}
	}
	*om = outMsg{dst: dst, train: om.train}
	m.fragment(om, m.seq, payload)
	if m.spans != nil {
		if e := telemetry.PeekEvent(payload); e.Flow != 0 {
			e.Node, e.Peer, e.Verb, e.Layer = m.ID(), dst, telemetry.Enqueue, telemetry.LayerMac
			om.span = e
			m.spans.Record(e)
		}
	}
	m.queue = append(m.queue, om)
	m.Stats.MessagesQueued++
	m.kick()
	return nil
}

// Trace enables flight-path recording of the diffusion messages the MAC
// carries: ring receives an enqueue event per sampled message admitted
// plus a tx event when its last fragment goes on the air (or a drop event
// when backoff exhaustion discards it).
func (m *Mac) Trace(ring *telemetry.Ring) { m.spans = ring }

// fragment splits payload into framed fragments, into om's train.
func (m *Mac) fragment(om *outMsg, seq uint16, payload []byte) {
	fp := m.params.FragmentPayload
	om.count = max(1, (len(payload)+fp-1)/fp) // empty payloads still occupy one fragment
	buf := slices.Grow(om.train[:0], om.count*fragHeaderSize+len(payload))
	for i := 0; i < om.count; i++ {
		buf = binary.BigEndian.AppendUint16(buf, toWireID(om.dst))
		buf = binary.BigEndian.AppendUint16(buf, toWireID(m.ID()))
		buf = binary.BigEndian.AppendUint16(buf, seq)
		buf = append(buf, byte(i), byte(om.count))
		buf = append(buf, payload[i*fp:min((i+1)*fp, len(payload))]...)
	}
	om.train = buf
}

// frame returns om's fragment i: every fragment but the last is a full
// one, so they lie at a fixed stride in the train.
func (m *Mac) frame(om *outMsg, i int) []byte {
	stride := fragHeaderSize + m.params.FragmentPayload
	return om.train[i*stride : min((i+1)*stride, len(om.train))]
}

// kick starts the transmit pump if idle. The pump defers a random slot
// count before its first carrier-sense attempt: without this, neighbors
// that heard the same fragment end synchronize and collide in the
// inter-fragment gaps.
func (m *Mac) kick() {
	if m.sending || len(m.queue) == 0 {
		return
	}
	m.sending = true
	defer0 := time.Duration(m.env.Rand().Intn(4)) * m.params.SlotTime
	m.env.Arm(&m.attemptEv, defer0)
}

// attempt tries to transmit the current fragment, backing off on carrier.
func (m *Mac) attempt() {
	if m.detached || len(m.queue) == 0 {
		m.sending = false
		return
	}
	cur := m.queue[0]
	if m.dutyCycled() {
		now := m.env.Now()
		needed := m.params.Turnaround() + m.tx.Airtime(len(m.frame(cur, cur.next))) + m.params.InterFragGap
		if !m.awake(now) || m.activeRemaining(now) < needed {
			// Sleep (or not enough window left for the whole fragment):
			// defer to the next active window plus a small random offset
			// so deferred senders do not stampede at wake-up.
			m.Stats.SleepDeferrals++
			jitter := time.Duration(m.env.Rand().Intn(4)) * m.params.SlotTime
			m.env.Arm(&m.attemptEv, m.nextWake(now)-now+jitter)
			return
		}
	}
	if m.tx.Busy() {
		cur.attempts++
		m.Stats.Backoffs++
		if cur.attempts > m.params.MaxAttempts {
			// Drop the whole message, as a primitive MAC would.
			m.queue = slices.Delete(m.queue, 0, 1) // keeps the array
			m.idle = append(m.idle, cur)
			m.Stats.MessagesDropped++
			if e := cur.span; e.Flow != 0 {
				e.Verb, e.Reason = telemetry.Drop, telemetry.DropLinkRefused
				m.spans.Record(e)
			}
			m.env.Arm(&m.attemptEv, 0)
			return
		}
		// Binary-exponential-flavored backoff bounded by MaxBackoffSlots.
		window := 1 << uint(cur.attempts)
		if window > m.params.MaxBackoffSlots {
			window = m.params.MaxBackoffSlots
		}
		slots := 1 + m.env.Rand().Intn(window)
		wait := time.Duration(slots) * m.params.SlotTime
		m.Stats.BackoffTime += wait
		if m.backoffHist != nil {
			m.backoffHist.Observe(wait.Microseconds())
		}
		m.env.Arm(&m.attemptEv, wait)
		return
	}
	// Carrier is clear: commit the transmission. After the turnaround the
	// fragment goes on the air regardless of what the channel does in the
	// meantime — the hardware cannot abort a committed send.
	m.env.Arm(&m.fireEv, m.params.Turnaround())
}

// fire puts the head fragment on the air (a committed transmission) and
// re-arms the pump after the airtime plus the inter-fragment gap.
func (m *Mac) fire() {
	if m.detached || len(m.queue) == 0 {
		// Crashed (or the queue was flushed) during the turnaround.
		m.sending = false
		return
	}
	if m.tx.Busy() {
		// Carrier appeared during the turnaround: the radio keeps sensing
		// right up to transmit start, so abort and take the normal
		// carrier-sense backoff path. Without this, two senders whose
		// pumps drift within one turnaround of each other would collide
		// every fragment forever.
		m.env.Arm(&m.attemptEv, 0)
		return
	}
	cur := m.queue[0]
	air := m.tx.Transmit(m.frame(cur, cur.next))
	m.Stats.FragmentsSent++
	cur.next++
	cur.attempts = 0
	if cur.next == cur.count {
		m.queue = slices.Delete(m.queue, 0, 1) // keeps the array
		m.idle = append(m.idle, cur)
		m.Stats.MessagesSent++
		if e := cur.span; e.Flow != 0 {
			e.Verb = telemetry.Tx
			m.spans.Record(e)
		}
	}
	m.env.Arm(&m.attemptEv, air+m.params.InterFragGap)
}

// onFrame handles a frame from the radio.
func (m *Mac) onFrame(from uint32, frame []byte) {
	if m.detached {
		return // crashed nodes hear nothing
	}
	// A message due now expires before any fragment ending now is placed,
	// whichever of the two events the kernel runs first.
	m.expireDue()
	if len(frame) < fragHeaderSize {
		return // runt
	}
	if !m.awake(m.env.Now()) {
		m.Stats.SleepDrops++
		return // the radio was asleep when the frame finished arriving
	}
	dst := fromWireID(binary.BigEndian.Uint16(frame[0:]))
	src := fromWireID(binary.BigEndian.Uint16(frame[2:]))
	seq := binary.BigEndian.Uint16(frame[4:])
	idx := int(frame[6])
	count := int(frame[7])
	frag, fp := frame[fragHeaderSize:], m.params.FragmentPayload
	if dst != Broadcast && dst != m.ID() {
		return // unicast for someone else
	}
	if count == 0 || idx >= count || count > maxFragments || len(frag) > fp || (idx < count-1 && len(frag) != fp) {
		return // malformed
	}
	m.Stats.FragmentsReceived++
	key := reasmKey{src: src, seq: seq}
	i := 0
	for i < len(m.reasm) && m.reasm[i].key != key {
		i++
	}
	if i == len(m.reasm) {
		if i == 0 {
			m.expiryEv.Cancel() // still pending if the last message completed
			m.env.Arm(&m.expiryEv, m.params.ReassemblyTimeout)
		}
		m.reasm = append(m.reasm, partial{key: key, count: count, deadline: m.env.Now() + m.params.ReassemblyTimeout, buf: m.takeBuf(count * fp)})
	}
	p := &m.reasm[i]
	if p.count != count || p.got&(1<<idx) != 0 {
		return // inconsistent fragment train, or a duplicate fragment
	}
	copy(p.buf[idx*fp:], frag)
	if idx == count-1 {
		p.buf = p.buf[:idx*fp+len(frag)]
	}
	if p.got |= 1 << idx; p.got != 1<<count-1 {
		return
	}
	buf := p.buf
	m.reasm = slices.Delete(m.reasm, i, i+1)
	m.Stats.MessagesDelivered++
	if m.handler != nil {
		m.handler(src, slices.Clip(buf))
	}
	clear(buf)
	m.putBuf(buf)
}
