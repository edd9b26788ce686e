package mac

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

type rxLog struct {
	from     []uint32
	payloads [][]byte
}

func (r *rxLog) handler() Handler {
	return func(from uint32, p []byte) {
		r.from = append(r.from, from)
		cp := make([]byte, len(p))
		copy(cp, p)
		r.payloads = append(r.payloads, cp)
	}
}

// twoNodes builds a 2-node link with the given channel params.
func twoNodes(seed int64, rp radio.Params) (*sim.Engine, *Mac, *Mac, *rxLog, *rxLog) {
	s := sim.New(seed)
	ch := radio.NewChannel(s, topo.Line(2, 5), rp)
	l1, l2 := &rxLog{}, &rxLog{}
	m1 := Attach(s, ch, 1, DefaultParams(), l1.handler())
	m2 := Attach(s, ch, 2, DefaultParams(), l2.handler())
	return s, m1, m2, l1, l2
}

func TestSingleFragmentDelivery(t *testing.T) {
	s, m1, _, _, l2 := twoNodes(1, radio.PerfectParams())
	payload := []byte("short")
	if err := m1.Send(Broadcast, payload); err != nil {
		t.Fatal(err)
	}
	for s.Step() {
	}
	if len(l2.payloads) != 1 || !bytes.Equal(l2.payloads[0], payload) {
		t.Fatalf("delivery: %v", l2.payloads)
	}
	if l2.from[0] != 1 {
		t.Errorf("source id = %d", l2.from[0])
	}
	if m1.Stats.FragmentsSent != 1 {
		t.Errorf("short payload should be one fragment: %+v", m1.Stats)
	}
}

func TestFragmentationAndReassembly(t *testing.T) {
	s, m1, _, _, l2 := twoNodes(1, radio.PerfectParams())
	payload := make([]byte, 112) // the paper's event size
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := m1.Send(2, payload); err != nil {
		t.Fatal(err)
	}
	for s.Step() {
	}
	// 112 bytes / 27 per fragment = 5 fragments.
	if m1.Stats.FragmentsSent != 5 {
		t.Errorf("fragments sent = %d, want 5", m1.Stats.FragmentsSent)
	}
	if len(l2.payloads) != 1 || !bytes.Equal(l2.payloads[0], payload) {
		t.Fatalf("reassembly failed: %d messages", len(l2.payloads))
	}
}

func TestEmptyPayload(t *testing.T) {
	s, m1, _, _, l2 := twoNodes(1, radio.PerfectParams())
	if err := m1.Send(Broadcast, nil); err != nil {
		t.Fatal(err)
	}
	for s.Step() {
	}
	if len(l2.payloads) != 1 || len(l2.payloads[0]) != 0 {
		t.Fatalf("empty payload should still deliver: %v", l2.payloads)
	}
}

func TestUnicastFiltering(t *testing.T) {
	s := sim.New(1)
	ch := radio.NewChannel(s, topo.Line(3, 5), radio.PerfectParams())
	l2, l3 := &rxLog{}, &rxLog{}
	m1 := Attach(s, ch, 1, DefaultParams(), nil)
	Attach(s, ch, 2, DefaultParams(), l2.handler())
	Attach(s, ch, 3, DefaultParams(), l3.handler())
	m1.Send(2, []byte("for-two"))
	for s.Step() {
	}
	if len(l2.payloads) != 1 {
		t.Error("addressed node must receive")
	}
	if len(l3.payloads) != 0 {
		t.Error("overhearing node must drop unicast for another")
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	s := sim.New(1)
	ch := radio.NewChannel(s, topo.Line(3, 5), radio.PerfectParams())
	l2, l3 := &rxLog{}, &rxLog{}
	m1 := Attach(s, ch, 1, DefaultParams(), nil)
	Attach(s, ch, 2, DefaultParams(), l2.handler())
	Attach(s, ch, 3, DefaultParams(), l3.handler())
	m1.Send(Broadcast, []byte("all"))
	for s.Step() {
	}
	// Node 3 is 10m from node 1: in range.
	if len(l2.payloads) != 1 || len(l3.payloads) != 1 {
		t.Errorf("broadcast delivery: %d, %d", len(l2.payloads), len(l3.payloads))
	}
}

func TestLostFragmentLosesWholeMessage(t *testing.T) {
	// With heavy loss, partial fragment trains must never surface as
	// corrupted messages: either the exact payload arrives or nothing.
	p := radio.PerfectParams()
	p.BaseLoss = 0.3
	delivered, complete := 0, 0
	payload := make([]byte, 112)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for seed := int64(0); seed < 100; seed++ {
		s, m1, _, _, l2 := twoNodes(seed, p)
		m1.Send(Broadcast, payload)
		for s.Step() {
		}
		delivered += len(l2.payloads)
		for _, got := range l2.payloads {
			if bytes.Equal(got, payload) {
				complete++
			}
		}
	}
	if delivered != complete {
		t.Errorf("%d delivered but only %d intact", delivered, complete)
	}
	if delivered == 0 || delivered == 100 {
		t.Errorf("with 30%% fragment loss over 5 fragments, delivery should be partial: %d/100", delivered)
	}
	// Expected intact probability: 0.7^5 ≈ 17%.
	if delivered > 60 {
		t.Errorf("delivery %d/100 too high for per-fragment loss", delivered)
	}
}

func TestCarrierSenseDefersAndDelivers(t *testing.T) {
	// Two senders in range of each other: carrier sense should serialize
	// them so both messages deliver to the third node.
	s := sim.New(5)
	ch := radio.NewChannel(s, topo.New("t"), radio.PerfectParams())
	_ = ch
	tp := topo.New("triangle")
	tp.Add(topo.Node{ID: 1, X: 0})
	tp.Add(topo.Node{ID: 2, X: 5})
	tp.Add(topo.Node{ID: 3, X: 2.5, Y: 4})
	s = sim.New(5)
	ch = radio.NewChannel(s, tp, radio.PerfectParams())
	l3 := &rxLog{}
	m1 := Attach(s, ch, 1, DefaultParams(), nil)
	m2 := Attach(s, ch, 2, DefaultParams(), nil)
	Attach(s, ch, 3, DefaultParams(), l3.handler())
	// Start m2 mid-way through m1's first fragment: m2 must defer.
	m1.Send(Broadcast, make([]byte, 100))
	s.After(5*time.Millisecond, func() { m2.Send(Broadcast, make([]byte, 100)) })
	for s.Step() {
	}
	if len(l3.payloads) != 2 {
		t.Errorf("carrier sense should let both messages through, got %d (backoffs=%d)",
			len(l3.payloads), m2.Stats.Backoffs)
	}
	if m2.Stats.Backoffs == 0 {
		t.Error("second sender should have backed off at least once")
	}
}

func TestHiddenTerminalsCollide(t *testing.T) {
	// Nodes 1 and 3 cannot hear each other (20m apart) but both reach 2:
	// simultaneous sends must collide at 2 for at least some seeds.
	collided := 0
	for seed := int64(0); seed < 30; seed++ {
		s := sim.New(seed)
		ch := radio.NewChannel(s, topo.Line(3, 10), radio.PerfectParams())
		l2 := &rxLog{}
		m1 := Attach(s, ch, 1, DefaultParams(), nil)
		Attach(s, ch, 2, DefaultParams(), l2.handler())
		m3 := Attach(s, ch, 3, DefaultParams(), nil)
		m1.Send(Broadcast, make([]byte, 100))
		m3.Send(Broadcast, make([]byte, 100))
		for s.Step() {
		}
		if len(l2.payloads) < 2 {
			collided++
		}
	}
	if collided == 0 {
		t.Error("hidden terminals should cause losses at the shared receiver")
	}
}

func TestQueueOverflow(t *testing.T) {
	s, m1, _, _, _ := twoNodes(1, radio.PerfectParams())
	var err error
	for i := 0; i <= DefaultParams().QueueLimit; i++ {
		err = m1.Send(Broadcast, make([]byte, 200))
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Errorf("queue overflow should return ErrQueueFull, got %v", err)
	}
	if m1.Stats.MessagesDropped == 0 {
		t.Error("drop must be counted")
	}
	for s.Step() {
	}
}

func TestTooLarge(t *testing.T) {
	_, m1, _, _, _ := twoNodes(1, radio.PerfectParams())
	if err := m1.Send(Broadcast, make([]byte, 4096)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized payload: %v", err)
	}
}

func TestReassemblyTimeout(t *testing.T) {
	// Lose fragments forever: partial state must expire, not leak.
	p := radio.PerfectParams()
	p.BaseLoss = 0.5
	s, m1, m2, _, _ := twoNodes(3, p)
	for i := 0; i < 10; i++ {
		d := time.Duration(i) * 2 * time.Second
		s.After(d, func() { m1.Send(Broadcast, make([]byte, 200)) })
	}
	s.RunUntil(2 * time.Minute)
	if len(m2.reasm) != 0 {
		t.Errorf("%d partial messages leaked", len(m2.reasm))
	}
	if m2.Stats.ReassemblyExpired == 0 {
		t.Error("expected some reassembly expirations under 50% loss")
	}
}

// Frames are lent by the radio for the call only, so reassembly must copy
// each fragment out: here every frame of three senders' interleaved trains —
// reordered, with duplicates — reaches onFrame through one scratch buffer
// that is overwritten after each call. Both complete messages come out as
// sent, as the handler sees them; the MAC lends its own buffer in turn, so
// after the call it reads zero. The train that lost a fragment expires and
// leaves no record.
func TestReassemblyCopiesOutOfTheFrame(t *testing.T) {
	s := sim.New(1)
	ch := radio.NewChannel(s, topo.Grid(2, 2, 5), radio.PerfectParams())
	senders := make([]*Mac, 4)
	for id := uint32(1); id <= 3; id++ {
		senders[id] = Attach(s.Port(id), ch, id, DefaultParams(), nil)
	}
	got, lent := map[uint32][]byte{}, map[uint32][]byte{}
	rx := Attach(s.Port(4), ch, 4, DefaultParams(), func(from uint32, p []byte) {
		got[from], lent[from] = bytes.Clone(p), p
	})
	sent := map[uint32][]byte{}
	trains := map[uint32][][]byte{}
	for id, size := range map[uint32]int{1: 112, 2: 60, 3: 81} {
		sent[id] = make([]byte, size)
		for i := range sent[id] {
			sent[id][i] = byte(int(id)*50 + i)
		}
		trains[id] = train(senders[id], 7, sent[id])
	}
	// Sender 3's fragment 1 is lost; 1's fragment 0 and 2's fragment 2
	// arrive twice.
	order := []struct {
		from uint32
		idx  int
	}{
		{1, 0}, {2, 2}, {3, 0}, {1, 2}, {1, 0}, {2, 1}, {1, 1},
		{3, 2}, {2, 2}, {1, 4}, {2, 0}, {1, 3},
	}
	scratch := make([]byte, 64)
	for _, f := range order {
		n := copy(scratch, trains[f.from][f.idx])
		rx.onFrame(f.from, scratch[:n])
		for i := range scratch {
			scratch[i] = 0xEE
		}
	}
	for _, id := range []uint32{1, 2} {
		if !bytes.Equal(got[id], sent[id]) {
			t.Errorf("from %d: delivered %x, sent %x", id, got[id], sent[id])
		}
		if !bytes.Equal(lent[id], make([]byte, len(sent[id]))) {
			t.Errorf("from %d: the lent payload reads %x after the handler returned, want zeros", id, lent[id])
		}
	}
	if _, ok := got[3]; ok || len(rx.reasm) != 1 {
		t.Fatalf("the broken train delivered (%v) or is not the one record left (%d)", ok, len(rx.reasm))
	}
	s.RunUntil(DefaultParams().ReassemblyTimeout + time.Second)
	if rx.Stats.ReassemblyExpired != 1 || len(rx.reasm) != 0 || rx.Stats.MessagesDelivered != 2 {
		t.Errorf("expired %d, %d records left, delivered %d; want 1, 0, 2",
			rx.Stats.ReassemblyExpired, len(rx.reasm), rx.Stats.MessagesDelivered)
	}
}

func TestBackoffExhaustionDrops(t *testing.T) {
	// Jam the channel: node 3 transmits long frames continuously so node
	// 1's carrier sense never clears.
	s := sim.New(7)
	tp := topo.Line(2, 5)
	ch := radio.NewChannel(s, tp, radio.PerfectParams())
	m1 := Attach(s, ch, 1, DefaultParams(), nil)
	jammer := ch.Attach(2, nil)
	var jam func()
	jam = func() {
		if s.Now() < 30*time.Second {
			air := jammer.Transmit(make([]byte, 200))
			s.After(air, jam)
		}
	}
	jam()
	s.After(time.Second, func() { m1.Send(Broadcast, []byte("x")) })
	s.RunUntil(time.Minute)
	if m1.Stats.MessagesDropped != 1 {
		t.Errorf("jammed sender should eventually drop: %+v", m1.Stats)
	}
}

func TestQuickReassemblyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64, n uint16) bool {
		size := int(n) % 900
		payload := make([]byte, size)
		r := rand.New(rand.NewSource(seed))
		r.Read(payload)
		s, m1, _, _, l2 := twoNodes(seed, radio.PerfectParams())
		if m1.Send(Broadcast, payload) != nil {
			return false
		}
		for s.Step() {
		}
		return len(l2.payloads) == 1 && bytes.Equal(l2.payloads[0], payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid params must panic")
		}
	}()
	s := sim.New(1)
	ch := radio.NewChannel(s, topo.Line(2, 5), radio.PerfectParams())
	Attach(s, ch, 1, Params{}, nil)
}

func TestDetachDropsQueueAndRejectsSends(t *testing.T) {
	s, m1, _, _, l2 := twoNodes(40, radio.PerfectParams())
	// Queue several multi-fragment messages, then detach mid-flight.
	for i := 0; i < 4; i++ {
		if err := m1.Send(Broadcast, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	m1.Detach()
	if !m1.detached {
		t.Error("Detached() must report true")
	}
	if err := m1.Send(Broadcast, []byte("x")); !errors.Is(err, ErrDetached) {
		t.Errorf("Send after Detach: err = %v, want ErrDetached", err)
	}
	if m1.Stats.MessagesDropped == 0 {
		t.Error("detaching must count the queued messages as dropped")
	}
	s.RunUntil(s.Now() + time.Minute)
	if len(l2.payloads) != 0 {
		t.Errorf("detached MAC delivered %d messages", len(l2.payloads))
	}
}

func TestDetachDropsReassemblyState(t *testing.T) {
	// Detach the RECEIVER mid-reassembly: the partial message must be
	// discarded, and fragments arriving after a restart must not resurrect
	// it (the message ID restarts stale).
	s, m1, m2, _, l2 := twoNodes(41, radio.PerfectParams())
	if err := m1.Send(Broadcast, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	// Let the first fragments land, then crash the receiver.
	s.RunUntil(s.Now() + 60*time.Millisecond)
	m2.Detach()
	m2.Restart()
	s.RunUntil(s.Now() + time.Minute)
	if len(l2.payloads) != 0 {
		t.Errorf("reassembly across a crash delivered %v", l2.payloads)
	}
}

func TestDetachWhileFrameInFlight(t *testing.T) {
	// Crash the RECEIVER while a single-fragment frame is in the air: the
	// radio still ends the frame there, and the detached MAC drops it.
	s, m1, m2, _, l2 := twoNodes(42, radio.PerfectParams())
	m1.Send(Broadcast, []byte("short"))
	for m1.Stats.FragmentsSent == 0 {
		s.Step()
	}
	s.RunUntil(s.Now() + time.Millisecond) // mid-frame
	m2.Detach()
	s.RunUntil(s.Now() + time.Minute)
	if len(l2.payloads) != 0 || m2.Stats.FragmentsReceived != 0 {
		t.Errorf("a MAC detached mid-frame delivered %v (stats %+v)", l2.payloads, m2.Stats)
	}
}

func TestRestartWhilePumpStepPending(t *testing.T) {
	// Crash the SENDER mid-message and bring it straight back: the pump
	// step that was pending must die with the queue, so the first Send
	// after Restart starts the one and only pump.
	s, m1, _, _, l2 := twoNodes(43, radio.PerfectParams())
	m1.Send(Broadcast, make([]byte, 100))
	s.RunUntil(s.Now() + 60*time.Millisecond)
	// Pending counts heap entries: the frame in the air is one (its
	// end-of-frame fan-out), the pump step another, and only that one goes.
	before := s.Pending()
	m1.Detach()
	if got := s.Pending(); got != before-1 || before < 2 {
		t.Errorf("Detach left %d of %d heap entries, want %d (the pump step cancelled, the frame in flight kept)", got, before, before-1)
	}
	m1.Restart()
	if err := m1.Send(Broadcast, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(s.Now() + time.Minute)
	if len(l2.payloads) != 1 || !bytes.Equal(l2.payloads[0], []byte("fresh")) {
		t.Errorf("delivery after a mid-message restart: %v", l2.payloads)
	}
}

func TestRestartResumesService(t *testing.T) {
	s, m1, m2, _, l2 := twoNodes(42, radio.PerfectParams())
	m2.Detach()
	m1.Send(Broadcast, []byte("lost"))
	s.RunUntil(s.Now() + time.Second)
	m2.Restart()
	if m2.detached {
		t.Error("Detached() must report false after Restart")
	}
	m1.Send(Broadcast, []byte("heard"))
	s.RunUntil(s.Now() + time.Second)
	if len(l2.payloads) != 1 || !bytes.Equal(l2.payloads[0], []byte("heard")) {
		t.Errorf("post-restart delivery: %v", l2.payloads)
	}
	// The restarted MAC can also send again.
	m2.Detach()
	m2.Restart()
	if err := m2.Send(Broadcast, []byte("back")); err != nil {
		t.Errorf("Send after Restart: %v", err)
	}
}

// rig attaches a receiver, node 1, and n senders, nodes 2 to n+1, to one
// channel. The tests below hand the senders' frames straight to the
// receiver's onFrame, so the radio carries nothing.
func rig(n int) (*sim.Engine, *Mac, []*Mac, *rxLog) {
	s := sim.New(1)
	ch := radio.NewChannel(s, topo.Line(n+1, 5), radio.PerfectParams())
	log := &rxLog{}
	rx := Attach(s.Port(1), ch, 1, DefaultParams(), log.handler())
	senders := make([]*Mac, n)
	for i := range senders {
		id := uint32(i + 2)
		senders[i] = Attach(s.Port(id), ch, id, DefaultParams(), nil)
	}
	return s, rx, senders, log
}

// train is the fragments m would put on the air for payload as message seq.
func train(m *Mac, seq uint16, payload []byte) [][]byte {
	om := &outMsg{dst: Broadcast}
	m.fragment(om, seq, payload)
	frags := make([][]byte, om.count)
	for i := range frags {
		frags[i] = slices.Clip(m.frame(om, i))
	}
	return frags
}

// counted fills a payload of n bytes, each one different from its
// neighbors, so a fragment in the wrong place shows.
func counted(n int, base byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = base + byte(i)
	}
	return p
}

// Fragments are placed by their index, so a train arriving back to front
// delivers the message as sent.
func TestReassemblyReverseOrder(t *testing.T) {
	_, rx, senders, log := rig(1)
	sent := counted(112, 3)
	frags := train(senders[0], 1, sent)
	for i := len(frags) - 1; i >= 0; i-- {
		rx.onFrame(senders[0].ID(), frags[i])
	}
	if len(log.payloads) != 1 || !bytes.Equal(log.payloads[0], sent) {
		t.Fatalf("delivered %x, sent %x", log.payloads, sent)
	}
}

// A fragment of the wrong size and a train of more than 64 fragments are
// malformed: each is ignored and starts no reassembly, and the train they
// were cut from still completes from its own fragments.
func TestReassemblyIgnoresMalformedFragments(t *testing.T) {
	_, rx, senders, log := rig(1)
	fp := DefaultParams().FragmentPayload
	sent := counted(2*fp+5, 9)
	frags := train(senders[0], 1, sent)
	tooMany := slices.Clone(frags[0])
	tooMany[7] = maxFragments + 1
	for _, f := range [][]byte{
		frags[0][:len(frags[0])-1],                              // a first fragment one byte short
		append(slices.Clone(frags[1]), 0),                       // a middle one a byte long
		append(slices.Clone(frags[2]), make([]byte, fp-5+1)...), // a last one too
		tooMany,
	} {
		rx.onFrame(senders[0].ID(), f)
	}
	if rx.Stats.FragmentsReceived != 0 || len(rx.reasm) != 0 {
		t.Fatalf("%d malformed fragments taken into %d messages", rx.Stats.FragmentsReceived, len(rx.reasm))
	}
	for _, f := range frags {
		rx.onFrame(senders[0].ID(), f)
	}
	if len(log.payloads) != 1 || !bytes.Equal(log.payloads[0], sent) {
		t.Fatalf("delivered %x, sent %x", log.payloads, sent)
	}
}

// Messages that start together fall due together: the one timer expires
// every one still unfinished at that instant, and re-arms for the oldest
// message left. Those completed in between are not counted, not even the
// oldest, for which the timer was armed.
func TestReassemblyExpiresTogether(t *testing.T) {
	s, rx, senders, log := rig(5)
	timeout := DefaultParams().ReassemblyTimeout
	trains := make([][][]byte, len(senders))
	for i, m := range senders {
		trains[i] = train(m, 1, counted(60, byte(i))) // three fragments
		if i < 4 {
			rx.onFrame(m.ID(), trains[i][0])
		}
	}
	s.RunUntil(time.Second)
	for _, i := range []int{0, 2} {
		rx.onFrame(senders[i].ID(), trains[i][1])
		rx.onFrame(senders[i].ID(), trains[i][2])
	}
	s.RunUntil(2 * time.Second)
	rx.onFrame(senders[4].ID(), trains[4][0])
	// The timer is the rig's only pending event; it falls due at the first
	// instant whose RunUntil moves the expiry count.
	check := func(at time.Duration, expired, left, timers int) {
		t.Helper()
		s.RunUntil(at)
		if rx.Stats.ReassemblyExpired != expired || len(rx.reasm) != left || s.Pending() != timers {
			t.Errorf("at %v: %d expired, %d left, %d pending; want %d, %d, %d",
				at, rx.Stats.ReassemblyExpired, len(rx.reasm), s.Pending(), expired, left, timers)
		}
	}
	check(timeout-1, 0, 3, 1)
	check(timeout, 2, 1, 1)
	check(2*time.Second+timeout-1, 2, 1, 1)
	check(2*time.Second+timeout, 3, 0, 0)
	if len(log.payloads) != 2 || rx.Stats.MessagesDelivered != 2 {
		t.Errorf("%d messages delivered, want 2", len(log.payloads))
	}
}

// Detach drops the messages under reassembly and cancels their timer.
// After Restart, the rest of a dropped train starts a message of its own,
// which expires, while a whole train delivers.
func TestDetachMidTrainThenRestart(t *testing.T) {
	s, rx, senders, log := rig(1)
	m := senders[0]
	frags := train(m, 1, counted(112, 1))
	for _, f := range frags[:3] {
		rx.onFrame(m.ID(), f)
	}
	rx.Detach()
	if len(rx.reasm) != 0 || s.Pending() != 0 {
		t.Fatalf("Detach left %d messages and %d events", len(rx.reasm), s.Pending())
	}
	rx.onFrame(m.ID(), frags[3]) // heard by a crashed node: nothing
	rx.Restart()
	rx.onFrame(m.ID(), frags[4])
	sent := counted(50, 7)
	for _, f := range train(m, 2, sent) {
		rx.onFrame(m.ID(), f)
	}
	s.RunUntil(DefaultParams().ReassemblyTimeout)
	if len(log.payloads) != 1 || !bytes.Equal(log.payloads[0], sent) {
		t.Errorf("delivered %x, want only %x", log.payloads, sent)
	}
	if rx.Stats.ReassemblyExpired != 1 || len(rx.reasm) != 0 || s.Pending() != 0 {
		t.Errorf("%d expired, %d messages and %d events left; want 1, 0, 0", rx.Stats.ReassemblyExpired, len(rx.reasm), s.Pending())
	}
}

// A fragment whose frame ends at its message's deadline finds the message
// expired, as it did when each message had its own expiry event, armed at
// its first fragment. Here the one timer is re-armed for that deadline
// after the frame began, so the frame's end runs first at that instant.
func TestFragmentAtDeadlineSeesItExpired(t *testing.T) {
	s, rx, senders, log := rig(2)
	timeout := DefaultParams().ReassemblyTimeout
	frags := train(senders[1], 1, counted(40, 5)) // two fragments
	air := senders[1].Radio().Airtime(len(frags[1]))
	rx.onFrame(senders[0].ID(), train(senders[0], 1, counted(40, 0))[0])
	s.RunUntil(air / 2)
	rx.onFrame(senders[1].ID(), frags[0]) // due at air/2 + timeout
	// The last fragment goes on the air so as to end at that deadline; it
	// begins before the timer, expiring the first message, re-arms.
	start := air/2 + timeout - air - radio.PerfectParams().PropDelay
	s.RunUntil(start)
	senders[1].Radio().Transmit(frags[1])
	s.RunUntil(air/2 + timeout - 1)
	early := rx.Stats.ReassemblyExpired
	s.RunUntil(air/2 + timeout)
	if early != 1 || rx.Stats.ReassemblyExpired != 2 || len(log.payloads) != 0 || len(rx.reasm) != 1 {
		t.Errorf("expired %d then %d, delivered %d, %d pending; want 1, 2, 0 and 1 (the late fragment's own)",
			early, rx.Stats.ReassemblyExpired, len(log.payloads), len(rx.reasm))
	}
}

// The idle reassembly buffers never number more than maxBufs, and they are
// the largest that came back: twenty trains of 2 to 21 fragments under
// reassembly at once all expire, and the buffers of the largest maxBufs
// stay, in ascending size.
func TestReassemblyKeepsAtMostMaxBufs(t *testing.T) {
	s, rx, senders, _ := rig(20)
	fp := DefaultParams().FragmentPayload
	for i, m := range senders {
		rx.onFrame(m.ID(), train(m, 1, counted((i+2)*fp, 1))[0])
	}
	s.RunUntil(DefaultParams().ReassemblyTimeout)
	if rx.Stats.ReassemblyExpired != 20 || len(rx.bufs) != maxBufs {
		t.Fatalf("%d expired, %d idle buffers; want 20, %d", rx.Stats.ReassemblyExpired, len(rx.bufs), maxBufs)
	}
	for i, b := range rx.bufs {
		if want := (20 - maxBufs + 2 + i) * fp; cap(b) != want {
			t.Errorf("idle buffer %d holds %d bytes, want %d", i, cap(b), want)
		}
	}
}

// A train takes the smallest idle buffer with room for it, or a new one
// of exactly its size when none has.
func TestReassemblyTakesAFreshBufferForALargerTrain(t *testing.T) {
	_, rx, senders, log := rig(3)
	fp := DefaultParams().FragmentPayload
	// Trains of 1, 5 and 3 fragments at once leave three idle buffers.
	var trains [][][]byte
	for i, frags := range []int{1, 5, 3} {
		trains = append(trains, train(senders[i], 1, counted(frags*fp, byte(i))))
		rx.onFrame(senders[i].ID(), trains[i][0])
	}
	for i, tr := range trains {
		for _, f := range tr[1:] {
			rx.onFrame(senders[i].ID(), f)
		}
	}
	idle := func() (caps []int) {
		for _, b := range rx.bufs {
			caps = append(caps, cap(b)/fp)
		}
		return caps
	}
	if got := idle(); !slices.Equal(got, []int{1, 3, 5}) {
		t.Fatalf("idle buffers of %v fragments, want [1 3 5]", got)
	}
	m := senders[0]
	two, six := train(m, 2, counted(2*fp, 7)), train(m, 3, counted(5*fp+3, 8))
	rx.onFrame(m.ID(), two[0])
	rx.onFrame(m.ID(), six[0])
	if got := idle(); cap(rx.reasm[0].buf) != 3*fp || cap(rx.reasm[1].buf) != 6*fp || !slices.Equal(got, []int{1, 5}) {
		t.Fatalf("2- and 6-fragment trains took buffers of %d and %d bytes, leaving %v idle; want %d, a new %d, and [1 5]",
			cap(rx.reasm[0].buf), cap(rx.reasm[1].buf), got, 3*fp, 6*fp)
	}
	for _, f := range append(two[1:], six[1:]...) {
		rx.onFrame(m.ID(), f)
	}
	if got := idle(); len(log.payloads) != 5 || !slices.Equal(got, []int{1, 3, 5, 6}) {
		t.Errorf("delivered %d, idle buffers of %v fragments; want 5 and [1 3 5 6]", len(log.payloads), got)
	}
}

// Sixty-four senders that start trains of every size up to maxFragments,
// finish a third of them and leave the rest to expire, over and over,
// never push the idle buffers past maxBufs, each at most maxFragments
// fragments long, kept in ascending size.
func TestReassemblyIdleBoundedUnderHostileSenders(t *testing.T) {
	s, rx, senders, _ := rig(64)
	fp := DefaultParams().FragmentPayload
	check := func(when string) {
		t.Helper()
		if len(rx.bufs) > maxBufs {
			t.Fatalf("%s: %d idle buffers, bound %d", when, len(rx.bufs), maxBufs)
		}
		for i, b := range rx.bufs {
			if cap(b) > maxFragments*fp || i > 0 && cap(b) < cap(rx.bufs[i-1]) {
				t.Fatalf("%s: idle buffer %d holds %d bytes after one of %d, bound %d",
					when, i, cap(b), cap(rx.bufs[max(i-1, 0)]), maxFragments*fp)
			}
		}
	}
	for round := range 6 {
		for i, m := range senders {
			frags := train(m, uint16(round), counted(1+(i*37+round*11)%(maxFragments*fp), byte(i)))
			if i%3 != round%3 {
				frags = frags[:len(frags)-1]
			}
			for _, f := range frags {
				rx.onFrame(m.ID(), f)
				check("reassembling")
			}
		}
		s.RunUntil(s.Now() + DefaultParams().ReassemblyTimeout)
		check("after expiry")
	}
	if len(rx.bufs) != maxBufs || rx.Stats.ReassemblyExpired == 0 || rx.Stats.MessagesDelivered == 0 {
		t.Errorf("%d idle buffers, %d expired, %d delivered; want %d and both above 0",
			len(rx.bufs), rx.Stats.ReassemblyExpired, rx.Stats.MessagesDelivered, maxBufs)
	}
}

// An expired train's buffer goes back to the idle ones, and the next train
// that fits takes it.
func TestReassemblyReusesAnExpiredBuffer(t *testing.T) {
	s, rx, senders, log := rig(1)
	m := senders[0]
	rx.onFrame(m.ID(), train(m, 1, counted(112, 1))[0])
	expired := &rx.reasm[0].buf[0]
	s.RunUntil(DefaultParams().ReassemblyTimeout)
	if rx.Stats.ReassemblyExpired != 1 || len(rx.bufs) != 1 {
		t.Fatalf("%d expired, %d idle buffers; want 1 and 1", rx.Stats.ReassemblyExpired, len(rx.bufs))
	}
	sent := counted(100, 9)
	frags := train(m, 2, sent)
	rx.onFrame(m.ID(), frags[0])
	if &rx.reasm[0].buf[0] != expired || len(rx.bufs) != 0 {
		t.Fatalf("the next train took a buffer of its own, %d idle", len(rx.bufs))
	}
	for _, f := range frags[1:] {
		rx.onFrame(m.ID(), f)
	}
	if len(log.payloads) != 1 || !bytes.Equal(log.payloads[0], sent) {
		t.Errorf("delivered %x, sent %x", log.payloads, sent)
	}
}
