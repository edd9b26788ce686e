package transport

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"diffusion/internal/custody"
	"diffusion/internal/message"
)

// custodyPayload builds a marshalled Data message carrying seq in its
// packet number, returning the wire payload and its custody token.
func custodyPayload(seq uint32) ([]byte, message.ID) {
	m := message.Message{
		Class:   message.Data,
		ID:      message.ID{RandID: 0xc0de, PktNum: seq},
		PrevHop: 1, NextHop: 2,
	}
	return m.Marshal(), m.ID
}

// custodyHarness wires a custody.Queue behind an endpoint's
// CustodyOptions and records releases, the shape cmd/diffnode uses.
type custodyHarness struct {
	q        *custody.Queue
	released []message.ID
}

func newCustodyHarness(limit int) *custodyHarness {
	return &custodyHarness{q: custody.NewQueue(limit, nil)}
}

func (h *custodyHarness) options(rto, maxRTO time.Duration) *CustodyOptions {
	return &CustodyOptions{
		Accept: func(from uint32, id message.ID, payload []byte) (held, fresh bool) {
			return h.q.Accept(id, payload)
		},
		Release: func(peer uint32, id message.ID) {
			h.q.Release(id)
			h.released = append(h.released, id)
		},
		RTO:    rto,
		MaxRTO: maxRTO,
	}
}

// offer takes custody of payload at the sender — its queue vouches for
// the message until the peer's ack discharges it — and offers it to 2.
func (h *custodyHarness) offer(t *testing.T, a *UDP, seq uint32) message.ID {
	t.Helper()
	payload, id := custodyPayload(seq)
	h.q.Accept(id, payload)
	if err := a.SendCustody(2, id, payload); err != nil {
		t.Fatal(err)
	}
	return id
}

const ms = time.Millisecond

// TestUDPCustodyTransfer walks the happy path: the sender holds custody,
// offers it, and discharges only after the receiver's durable accept
// comes back as an ack. The payload is delivered up exactly once.
func TestUDPCustodyTransfer(t *testing.T) {
	ha, hb := newCustodyHarness(16), newCustodyHarness(16)
	n := newSimNet(t)
	a, _, _, cb := n.pair(
		UDPConfig{Custody: ha.options(20*ms, 100*ms)},
		UDPConfig{Custody: hb.options(20*ms, 100*ms)})

	id := ha.offer(t, a, 1)
	// One wire delay: delivered and durably held at b, not yet discharged
	// at a — at every instant somebody vouches for the message.
	n.run(n.delay)
	if cb.count() != 1 || !hb.q.Has(id) {
		t.Fatalf("after one wire delay: delivered %d, receiver holds %v", cb.count(), hb.q.Has(id))
	}
	if a.CustodyPending() != 1 || ha.q.Len() != 1 || len(ha.released) != 0 {
		t.Fatal("sender discharged before the ack arrived")
	}
	// One more: the ack discharges the sender.
	n.run(n.delay)
	if len(ha.released) != 1 || ha.released[0] != id {
		t.Fatalf("released %v, want [%v]", ha.released, id)
	}
	if a.CustodyPending() != 0 || ha.q.Len() != 0 {
		t.Fatalf("sender pending=%d queue=%d, want 0 after discharge", a.CustodyPending(), ha.q.Len())
	}
	if hb.q.Len() != 1 {
		t.Fatalf("receiver queue len = %d, want custody held", hb.q.Len())
	}
	if a.Stats().CustodySent.Load() != 1 || a.Stats().CustodyAcksRecv.Load() != 1 {
		t.Fatalf("sender accounting: sent=%d acksRecv=%d",
			a.Stats().CustodySent.Load(), a.Stats().CustodyAcksRecv.Load())
	}
	// Nothing retransmits an acknowledged offer.
	n.run(time.Second)
	if a.Stats().CustodyRetransmits.Load() != 0 || cb.count() != 1 {
		t.Fatal("acknowledged offer was retransmitted")
	}
}

// TestUDPCustodyRetransmitsAcrossPartition blocks the receiver, offers
// custody, and lets the offer ride out the partition on its capped
// backoff: unlike reliable unicast there is no give-up, so the transfer
// completes on the first retransmission after the partition heals.
func TestUDPCustodyRetransmitsAcrossPartition(t *testing.T) {
	ha, hb := newCustodyHarness(16), newCustodyHarness(16)
	n := newSimNet(t)
	a, _, _, cb := n.pair(
		UDPConfig{Custody: ha.options(10*ms, 40*ms)},
		UDPConfig{Custody: hb.options(10*ms, 40*ms)})

	a.SetBlocked([]uint32{2})
	ha.offer(t, a, 7)

	// The offer keeps retrying into the partition, not abandoned:
	// retransmissions at 10, 30, 70 and then every 40ms.
	n.run(time.Second)
	if got := a.Stats().CustodyRetransmits.Load(); got != 3+23 {
		t.Fatalf("retransmits after 1s = %d, want 26", got)
	}
	if cb.count() != 0 {
		t.Fatal("payload crossed a blocked link")
	}
	if a.CustodyPending() != 1 {
		t.Fatalf("pending = %d, want 1 (never abandoned)", a.CustodyPending())
	}

	a.SetBlocked(nil)
	n.run(40*ms + 2*n.delay)
	if cb.count() != 1 || a.CustodyPending() != 0 {
		t.Fatalf("one capped RTO after the heal: delivered %d, pending %d", cb.count(), a.CustodyPending())
	}
	if ha.q.Len() != 0 || hb.q.Len() != 1 {
		t.Fatalf("queues after heal: sender=%d receiver=%d, want 0 and 1",
			ha.q.Len(), hb.q.Len())
	}
}

// TestUDPCustodyDuplicateOfferReacked re-offers an ID the receiver
// already durably holds — the shape a lost ack or a custodian restart
// produces. The duplicate must be re-acked (held) without being
// re-delivered (not fresh), so the sender discharges and the receiver
// still delivered exactly once.
func TestUDPCustodyDuplicateOfferReacked(t *testing.T) {
	ha, hb := newCustodyHarness(16), newCustodyHarness(16)
	n := newSimNet(t)
	a, b, _, cb := n.pair(
		UDPConfig{Custody: ha.options(10*ms, 40*ms)},
		UDPConfig{Custody: hb.options(10*ms, 40*ms)})

	ha.offer(t, a, 9)
	n.run(2 * n.delay)
	if a.CustodyPending() != 0 {
		t.Fatal("first transfer did not complete in one round trip")
	}

	// Offer the same ID again, as a restarted custodian whose ack was
	// lost would: the receiver re-acks from its held set without a second
	// delivery, and the sender discharges again.
	ha.offer(t, a, 9)
	n.run(2 * n.delay)
	if a.CustodyPending() != 0 {
		t.Fatal("duplicate offer was not re-acked")
	}
	if got := cb.count(); got != 1 {
		t.Fatalf("delivered %d times, want exactly 1", got)
	}
	if got := b.Stats().CustodyAcksSent.Load(); got != 2 {
		t.Fatalf("acks sent = %d, want 2", got)
	}
	if hb.q.Len() != 1 {
		t.Fatalf("receiver queue len = %d, want 1", hb.q.Len())
	}
}

// TestUDPCustodyRejectedWhenFull gives the receiver a zero-headroom
// custody queue: offers are refused (no ack, counted as rejected) and
// the payload is not delivered, so the sender retains custody. Once the
// receiver frees a slot, the next retransmission is accepted.
func TestUDPCustodyRejectedWhenFull(t *testing.T) {
	ha, hb := newCustodyHarness(16), newCustodyHarness(1)
	n := newSimNet(t)
	a, b, _, cb := n.pair(
		UDPConfig{Custody: ha.options(10*ms, 40*ms)},
		UDPConfig{Custody: hb.options(10*ms, 40*ms)})

	// Fill the receiver's single slot with unrelated custody.
	blocker, blockerID := custodyPayload(100)
	hb.q.Accept(blockerID, blocker)

	ha.offer(t, a, 3)
	// The offer and its first two retransmissions (at 10 and 30ms) are
	// all refused.
	n.run(30*ms + n.delay)
	if got := b.Stats().CustodyRejected.Load(); got != 3 {
		t.Fatalf("rejected = %d, want 3", got)
	}
	if cb.count() != 0 {
		t.Fatal("rejected offer was delivered")
	}
	if b.Stats().CustodyAcksSent.Load() != 0 {
		t.Fatal("rejected offer was acknowledged")
	}
	if ha.q.Len() != 1 {
		t.Fatalf("sender queue len = %d, want 1 (custody retained)", ha.q.Len())
	}

	hb.q.Release(blockerID)
	n.run(40*ms + n.delay) // the third retransmission, at 70ms
	if cb.count() != 1 || a.CustodyPending() != 0 {
		t.Fatalf("after the slot freed: delivered %d, pending %d", cb.count(), a.CustodyPending())
	}
}

// TestUDPCustodyReofferOnRecovery pairs custody with the failure
// detector: a partition long enough to declare the peer dead, then a
// heal — the PeerAlive transition must re-offer pending custody
// immediately instead of waiting out the full backoff.
func TestUDPCustodyReofferOnRecovery(t *testing.T) {
	lv := LivenessConfig{
		Interval:        10 * ms,
		SuspectAfter:    30 * ms,
		DeadAfter:       60 * ms,
		MaxProbeBackoff: 20 * ms,
	}
	ha, hb := newCustodyHarness(16), newCustodyHarness(16)
	// A long RTO so only the recovery hook can explain a prompt re-offer.
	la, lb := lv, lv
	n := newSimNet(t)
	a, b, _, cb := n.pair(
		UDPConfig{Liveness: &la, Custody: ha.options(2*time.Second, 4*time.Second)},
		UDPConfig{Liveness: &lb, Custody: hb.options(2*time.Second, 4*time.Second)})

	// Partition both directions until a has declared 2 dead.
	a.SetBlocked([]uint32{2})
	b.SetBlocked([]uint32{1})
	n.run(lv.DeadAfter)
	if a.Stats().PeerDeaths.Load() != 1 {
		t.Fatalf("peer deaths after DeadAfter of partition = %d, want 1", a.Stats().PeerDeaths.Load())
	}

	ha.offer(t, a, 5)
	n.run(50 * ms)
	if cb.count() != 0 {
		t.Fatal("payload crossed the partition")
	}

	a.SetBlocked(nil)
	b.SetBlocked(nil)
	// Heartbeats resume within the 20ms probe cap (plus jitter), the
	// detector flips 2 back to alive, and the recovery hook re-offers well
	// before the 2 s RTO would fire.
	n.run(25*ms + 4*n.delay)
	if cb.count() != 1 || a.CustodyPending() != 0 {
		t.Fatalf("after recovery: delivered %d, pending %d; want the re-offer acked", cb.count(), a.CustodyPending())
	}
	if a.Stats().PeerRecoveries.Load() != 1 {
		t.Fatalf("recoveries = %d, want 1", a.Stats().PeerRecoveries.Load())
	}
	if got := a.Stats().CustodyRetransmits.Load(); got != 1 {
		t.Fatalf("custody retransmits = %d, want exactly the recovery re-offer", got)
	}
}

// TestUDPCustodySupersede moves a pending offer to a new peer: the old
// offer is dropped, and pending stays at one.
func TestUDPCustodySupersede(t *testing.T) {
	ha, hb := newCustodyHarness(16), newCustodyHarness(16)
	n := newSimNet(t)
	cfg := UDPConfig{ID: 1, Neighbors: neighbors(2, 3), Custody: ha.options(time.Hour, time.Hour)}
	a := n.endpoint(cfg)
	n.endpoint(UDPConfig{ID: 2, Neighbors: neighbors(1), Custody: hb.options(time.Hour, time.Hour)})

	payload, id := custodyPayload(11)
	ha.q.Accept(id, payload)
	a.SetBlocked([]uint32{2, 3})
	if err := a.SendCustody(2, id, payload); err != nil {
		t.Fatal(err)
	}
	if a.CustodyPending() != 1 {
		t.Fatalf("pending = %d, want 1", a.CustodyPending())
	}
	// Re-offering to the same peer is a no-op on the wire state.
	if err := a.SendCustody(2, id, payload); err != nil {
		t.Fatal(err)
	}
	if a.CustodyPending() != 1 {
		t.Fatalf("pending after idempotent re-offer = %d, want 1", a.CustodyPending())
	}
	if got := a.Stats().CustodySent.Load(); got != 1 {
		t.Fatalf("custody sent = %d, want 1 (re-offer suppressed)", got)
	}
	// Offering it to another peer replaces the offer instead of adding one.
	if err := a.SendCustody(3, id, payload); err != nil {
		t.Fatal(err)
	}
	if a.CustodyPending() != 1 || a.Stats().CustodySent.Load() != 2 {
		t.Fatalf("after supersede: pending=%d sent=%d, want 1 and 2",
			a.CustodyPending(), a.Stats().CustodySent.Load())
	}
	if a.rel.byID[id] != 3 {
		t.Fatalf("pending offer is toward %d, want 3", a.rel.byID[id])
	}

	// Unknown destinations are refused outright.
	if err := a.SendCustody(99, id, payload); err == nil {
		t.Fatal("SendCustody to a stranger must fail")
	}
}

// TestUDPCustodyToCustodylessPeer covers mixed deployments: an offer to
// a peer running without custody still delivers the payload — exactly
// once — but is never held, so responsibility stays with the sender (the
// offer remains pending and the queue keeps the item). The peer's plain
// ack parks the offer: nothing is retransmitted.
func TestUDPCustodyToCustodylessPeer(t *testing.T) {
	ha := newCustodyHarness(16)
	n := newSimNet(t)
	a, b, _, cb := n.pair(
		UDPConfig{Custody: ha.options(20*ms, 50*ms)},
		UDPConfig{}) // receiver has no custody wired

	id := ha.offer(t, a, 7)
	n.run(300*ms + n.delay)
	if got := cb.count(); got != 1 {
		t.Fatalf("delivered %d times, want exactly 1", got)
	}
	if got := a.Stats().CustodyRetransmits.Load(); got != 0 {
		t.Fatalf("retransmits in 300ms = %d, want 0", got)
	}
	if got := b.Stats().DupSuppressed.Load(); got != 0 {
		t.Fatalf("duplicates suppressed = %d, want 0", got)
	}
	if a.Stats().CustodyAcksRecv.Load() != 0 {
		t.Fatal("custody-less peer must never acknowledge an offer")
	}
	if a.CustodyPending() != 1 || ha.q.Len() != 1 || !ha.q.Has(id) {
		t.Fatalf("pending=%d len=%d has=%v; sender must keep custody",
			a.CustodyPending(), ha.q.Len(), ha.q.Has(id))
	}
	if len(ha.released) != 0 {
		t.Fatal("custody must not be released without a durable accept")
	}
}

// TestUDPCustodyOfferOutlastsOffersElsewhere: a custody-less receiver
// deduplicates offers in a window of dupSpan numbers per sender, and a
// retransmission must still reach it however many offers the sender made
// meanwhile. Offer X to B is lost, 65 offers go to C, then offer Y to B
// arrives; X's retransmission must be delivered, not refused as stale.
func TestUDPCustodyOfferOutlastsOffersElsewhere(t *testing.T) {
	ha := newCustodyHarness(128)
	n := newSimNet(t)
	a := n.endpoint(UDPConfig{ID: 1, Neighbors: neighbors(2, 3), Custody: ha.options(100*ms, 100*ms)})
	b := &collector{}
	n.endpoint(UDPConfig{ID: 2, Neighbors: neighbors(1), Deliver: b.deliver})
	n.endpoint(UDPConfig{ID: 3, Neighbors: neighbors(1), Custody: newCustodyHarness(128).options(time.Hour, time.Hour)})
	offer := func(peer, seq uint32) {
		payload, id := custodyPayload(seq)
		ha.q.Accept(id, payload)
		if err := a.SendCustody(peer, id, payload); err != nil {
			t.Fatal(err)
		}
	}
	a.SetBlocked([]uint32{2})
	offer(2, 1) // X, lost
	a.SetBlocked(nil)
	for seq := uint32(100); seq < 165; seq++ {
		offer(3, seq)
	}
	offer(2, 2) // Y
	n.run(250 * ms)
	if got, _ := b.snapshot(); len(got) != 2 {
		t.Fatalf("B got %d offers, want X and Y (%d refused as stale)", len(got), n.nodes[simAddr(2)].Stats().ReliableStale.Load())
	}
}

// TestUDPCustodyLostOfferToCustodylessPeer: toward a custody-less peer an
// offer is lost and dupSpan+1 later ones are delivered. The lost offer's
// retransmission must still be delivered, not refused as stale: offers
// share reliable unicast's window and span bound.
func TestUDPCustodyLostOfferToCustodylessPeer(t *testing.T) {
	ha := newCustodyHarness(128)
	n := newSimNet(t)
	a, b, _, cb := n.pair(UDPConfig{Custody: ha.options(100*ms, 100*ms)}, UDPConfig{})
	a.SetBlocked([]uint32{2})
	ha.offer(t, a, 1) // lost
	a.SetBlocked(nil)
	for seq := uint32(2); seq <= dupSpan+2; seq++ {
		ha.offer(t, a, seq)
	}
	n.run(250 * ms)
	if got := cb.count(); got != dupSpan+2 {
		t.Fatalf("delivered %d of %d offers, %d refused as stale", got, dupSpan+2, b.Stats().ReliableStale.Load())
	}
}

// An offer the receiver cannot read must not hold a window slot for ever:
// a window of them, then a valid offer and a reliable frame to the same
// custody-capable peer, and the last two are delivered.
func TestUDPCustodyMalformedOffersDoNotStallTheWindow(t *testing.T) {
	ha := newCustodyHarness(64)
	n := newSimNet(t)
	a, b, _, cb := n.pair(
		UDPConfig{Reliable: &ReliableConfig{}, Custody: ha.options(10*ms, 40*ms)},
		UDPConfig{Custody: newCustodyHarness(64).options(time.Hour, time.Hour)})
	for i := 0; i < a.rel.cfg.Window; i++ {
		if err := a.SendCustody(2, message.ID{RandID: 0xbad, PktNum: uint32(i)}, []byte("not a message")); err != nil {
			t.Fatal(err)
		}
	}
	id := ha.offer(t, a, 1)
	if err := a.Send(2, payloadOf(message.Data, "after")); err != nil {
		t.Fatal(err)
	}
	n.run(time.Second)
	if cb.count() != 2 || ha.q.Has(id) || b.Stats().RecvDropped.Load() != uint64(a.rel.cfg.Window) {
		t.Fatalf("delivered %d, offer still held by the sender %v, %d malformed dropped; want 2, false and %d",
			cb.count(), ha.q.Has(id), b.Stats().RecvDropped.Load(), a.rel.cfg.Window)
	}
}

// Offers pending toward a partitioned peer, more of them than QueueLimit,
// do not count against the reliable queue's bound: a reliable frame sent
// after them is not shed but waits its turn, and is delivered once the
// peer is back.
func TestUDPCustodyOffersOutsideQueueLimit(t *testing.T) {
	ha := newCustodyHarness(128)
	n := newSimNet(t)
	a, _, _, cb := n.pair(
		UDPConfig{Reliable: &ReliableConfig{}, Custody: ha.options(10*ms, 40*ms)},
		UDPConfig{Custody: newCustodyHarness(128).options(time.Hour, time.Hour)})
	a.SetBlocked([]uint32{2})
	offers := a.rel.cfg.QueueLimit + 8
	for seq := 1; seq <= offers; seq++ {
		ha.offer(t, a, uint32(seq))
	}
	after := payloadOf(message.Data, "after")
	if err := a.Send(2, after); err != nil {
		t.Fatal(err)
	}
	n.run(time.Second)
	a.SetBlocked(nil)
	n.run(time.Second)
	got, _ := cb.snapshot()
	if len(got) != offers+1 || !slices.Contains(got, string(after)) || a.CustodyPending() != 0 || a.Stats().QueueDrops.Load() != 0 {
		t.Fatalf("delivered %d of %d, reliable frame among them %v, %d offers pending, %d shed",
			len(got), offers+1, slices.Contains(got, string(after)), a.CustodyPending(), a.Stats().QueueDrops.Load())
	}
}

// A configured peer without custody plain-acks an offer, which parks. When
// the peer restarts under a new boot nonce, now with custody, the sender
// forgets what it sent the old incarnation, so the replayed offer goes out
// afresh, is held, and is released.
func TestUDPCustodyReofferAfterPeerRestart(t *testing.T) {
	lv := LivenessConfig{Interval: 10 * ms, SuspectAfter: 30 * ms, DeadAfter: 60 * ms, MaxProbeBackoff: 20 * ms}
	la, lb := lv, lv
	ha := newCustodyHarness(16)
	n := newSimNet(t)
	a, b, _, _ := n.pair(UDPConfig{Liveness: &la, Custody: ha.options(10*ms, 40*ms)}, UDPConfig{Liveness: &lb})
	id := ha.offer(t, a, 7)
	n.run(100 * ms)
	if a.CustodyPending() != 1 || a.Stats().CustodyRetransmits.Load() != 0 {
		t.Fatalf("pending %d, retransmits %d; want the offer parked", a.CustodyPending(), a.Stats().CustodyRetransmits.Load())
	}

	b.Close()
	n.salt = 0x5a5a // a new boot nonce
	hb := newCustodyHarness(16)
	lb2 := lv
	n.endpoint(UDPConfig{ID: 2, Neighbors: neighbors(1), Liveness: &lb2, Custody: hb.options(time.Hour, time.Hour)})
	n.run(50 * ms)    // heartbeats carry the new boot nonce
	ha.offer(t, a, 7) // the core's replay
	n.run(50 * ms)
	if a.CustodyPending() != 0 || !slices.Equal(ha.released, []message.ID{id}) || !hb.q.Has(id) {
		t.Fatalf("after the restart: pending %d, released %v, held by the new custodian %v; want 0, [%v], true",
			a.CustodyPending(), ha.released, hb.q.Has(id), id)
	}
}

// A receiver without custody acks a reliable frame and an offer alike, but
// AcksSent and AcksRecv count the reliable frame's ack alone: plain acks
// of offers are not reliable-unicast traffic.
func TestUDPCustodyPlainAcksNotCountedAsReliable(t *testing.T) {
	ha := newCustodyHarness(16)
	n := newSimNet(t)
	a, b, _, cb := n.pair(UDPConfig{Reliable: &ReliableConfig{}, Custody: ha.options(time.Hour, time.Hour)}, UDPConfig{})
	ha.offer(t, a, 1)
	if err := a.Send(2, payloadOf(message.Data, "reliable")); err != nil {
		t.Fatal(err)
	}
	n.run(2 * n.delay)
	if cb.count() != 2 || b.Stats().AcksSent.Load() != 1 || a.Stats().AcksRecv.Load() != 1 {
		t.Fatalf("delivered %d, acks sent %d, acks received %d; want 2, 1 and 1",
			cb.count(), b.Stats().AcksSent.Load(), a.Stats().AcksRecv.Load())
	}
}

// TestUDPCustodyOfferValidation offers message's FuzzUnmarshal corpus —
// every way a payload is known to be malformed, and every shape of valid
// one — across the wire. The allocation-free check in acceptOffer must
// refuse exactly what the full decode it replaced refused, counting each in
// RecvDropped before the durable accept can see it, and must vouch for the
// rest under the ID the decode reads.
func TestUDPCustodyOfferValidation(t *testing.T) {
	const corpus = "../message/testdata/fuzz/FuzzUnmarshal"
	files, err := os.ReadDir(corpus)
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus under %s: %v", corpus, err)
	}
	ha := newCustodyHarness(64)
	var accepted []message.ID
	n := newSimNet(t)
	a, b, _, _ := n.pair(
		UDPConfig{Custody: ha.options(time.Hour, time.Hour)}, // nothing retransmits within the test
		UDPConfig{Custody: &CustodyOptions{
			Accept: func(_ uint32, id message.ID, _ []byte) (held, fresh bool) {
				accepted = append(accepted, id)
				return true, true
			},
			Release: func(uint32, message.ID) {},
		}})
	valid := 0
	for i, f := range files {
		raw, err := os.ReadFile(filepath.Join(corpus, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte("...")\n"
		_, lit, _ := strings.Cut(string(raw), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file: %v", f.Name(), err)
		}
		payload := []byte(s)
		dropped, took := b.Stats().RecvDropped.Load(), len(accepted)
		if err := a.SendCustody(2, message.ID{RandID: 0xfeed, PktNum: uint32(i)}, payload); err != nil {
			t.Fatal(err)
		}
		n.run(n.delay)
		m, err := message.Unmarshal(payload)
		if err != nil {
			if b.Stats().RecvDropped.Load() != dropped+1 || len(accepted) != took {
				t.Errorf("%s (%v): dropped %d, accepted %d; want refused and counted",
					f.Name(), err, b.Stats().RecvDropped.Load()-dropped, len(accepted)-took)
			}
			continue
		}
		valid++
		if b.Stats().RecvDropped.Load() != dropped || len(accepted) != took+1 || accepted[took] != m.ID {
			t.Errorf("%s: dropped %d, accepted %v; want custody taken under %v",
				f.Name(), b.Stats().RecvDropped.Load()-dropped, accepted[took:], m.ID)
		}
	}
	if valid == 0 || valid == len(files) {
		t.Fatalf("%d of %d corpus payloads decode: the table needs both kinds", valid, len(files))
	}
}
