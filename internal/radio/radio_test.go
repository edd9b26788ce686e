package radio

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// pair builds a two-node channel at the given separation.
func pair(t *testing.T, dist float64, p Params, seed int64) (*sim.Engine, *Channel, *Transceiver, *Transceiver, *[]string) {
	t.Helper()
	tp := topo.New("pair")
	tp.Add(topo.Node{ID: 1, X: 0})
	tp.Add(topo.Node{ID: 2, X: dist})
	s := sim.New(seed)
	c := NewChannel(s, tp, p)
	var log []string
	t1 := c.Attach(1, func(from uint32, b []byte) { log = append(log, "1<-") })
	t2 := c.Attach(2, func(from uint32, b []byte) {
		log = append(log, "2<-"+string(b))
	})
	return s, c, t1, t2, &log
}

func TestDeliveryInRange(t *testing.T) {
	s, c, t1, _, log := pair(t, 10, PerfectParams(), 1)
	air := t1.Transmit([]byte("hello"))
	if want := c.Airtime(5); air != want {
		t.Errorf("airtime %v want %v", air, want)
	}
	for s.Step() {
	}
	if len(*log) != 1 || (*log)[0] != "2<-hello" {
		t.Fatalf("delivery log: %v", *log)
	}
	if c.Stats().FramesDelivered != 1 || c.Stats().FramesSent != 1 {
		t.Errorf("stats: %+v", c.Stats())
	}
	if t1.Stats.BytesSent != 5 || t1.Stats.FramesSent != 1 {
		t.Errorf("tx stats: %+v", t1.Stats)
	}
}

// TestOnDecodeSeesWhatHandlersGet: the decode hook sees each decoded frame
// once, at the end of its airtime and before its handler, and never a
// frame the receiver missed.
func TestOnDecodeSeesWhatHandlersGet(t *testing.T) {
	s, c, t1, t2, log := pair(t, 10, PerfectParams(), 1)
	var seen []string
	c.OnDecode(func(at time.Duration, from, to uint32, data []byte) {
		if at != s.Now() || len(*log) != len(seen) {
			t.Errorf("decode at %v, now %v, after %d deliveries and %d decodes", at, s.Now(), len(*log), len(seen))
		}
		seen = append(seen, fmt.Sprintf("%d->%d %s", from, to, data))
	})
	// Both send at once: each is transmitting while the other's frame
	// arrives, so neither decodes anything.
	t1.Transmit([]byte("hello"))
	t2.Transmit([]byte("clash"))
	for s.Step() {
	}
	t1.Transmit([]byte("again"))
	for s.Step() {
	}
	if !slices.Equal(seen, []string{"1->2 again"}) || !slices.Equal(*log, []string{"2<-again"}) {
		t.Fatalf("decodes %q, deliveries %q; want the one frame 2 decoded", seen, *log)
	}
}

func TestNoDeliveryBeyondMaxRange(t *testing.T) {
	s, c, t1, t2, log := pair(t, 25, PerfectParams(), 1)
	t1.Transmit([]byte("x"))
	for s.Step() {
	}
	if len(*log) != 0 {
		t.Fatalf("should not deliver beyond MaxRange: %v", *log)
	}
	if t2.Stats.FramesReceived != 0 || c.Stats().FramesLost != 0 {
		t.Error("out-of-range node should not even count a loss")
	}
}

func TestFadeZoneLossy(t *testing.T) {
	// At 17m (between solid 13.5 and max 19) delivery should be partial.
	p := PerfectParams()
	delivered := 0
	const trials = 300
	for seed := int64(0); seed < trials; seed++ {
		s, _, t1, t2, _ := pair(t, 17, p, seed)
		t1.Transmit([]byte("x"))
		for s.Step() {
		}
		delivered += t2.Stats.FramesReceived
	}
	if delivered == 0 || delivered == trials {
		t.Errorf("fade zone delivered %d/%d, want partial", delivered, trials)
	}
}

func TestAirtimeAt13kbps(t *testing.T) {
	s := sim.New(1)
	c := NewChannel(s, topo.Line(2, 5), DefaultParams())
	// A 127-byte message + 8B preamble at 13 kb/s ≈ 83 ms: multi-hop
	// traffic is slow, as in the testbed.
	air := c.Airtime(127)
	if air < 80*time.Millisecond || air > 90*time.Millisecond {
		t.Errorf("airtime for 127B = %v, want ~83ms", air)
	}
}

func TestCarrierSense(t *testing.T) {
	s, _, t1, t2, _ := pair(t, 10, PerfectParams(), 1)
	if t1.Busy() || t2.Busy() {
		t.Fatal("idle medium must not be busy")
	}
	t1.Transmit(make([]byte, 100))
	if !t1.Busy() || t1.port.Now() >= t1.txUntil {
		t.Error("transmitter must be busy during its own send")
	}
	// After propagation delay the peer hears carrier.
	s.RunUntil(s.Now() + time.Millisecond)
	if !t2.Busy() {
		t.Error("receiver in range must sense carrier")
	}
	for s.Step() {
	}
	if t1.Busy() || t2.Busy() {
		t.Error("medium must go idle after airtime")
	}
}

func TestCollisionAtSharedReceiver(t *testing.T) {
	// Hidden terminals: 1 and 3 cannot hear each other but both reach 2.
	tp := topo.Line(3, 10) // 1-2-3, range 13.5 < 20
	s := sim.New(1)
	c := NewChannel(s, tp, PerfectParams())
	got := 0
	tx1 := c.Attach(1, nil)
	c.Attach(2, func(uint32, []byte) { got++ })
	tx3 := c.Attach(3, nil)
	tx1.Transmit(make([]byte, 50))
	// Overlapping transmission from the other side.
	s.After(time.Millisecond, func() { tx3.Transmit(make([]byte, 50)) })
	for s.Step() {
	}
	if got != 0 {
		t.Errorf("collided frames must not deliver, got %d", got)
	}
	if c.Stats().FramesCollided != 2 {
		t.Errorf("both frames should be counted collided: %+v", c.Stats())
	}
}

func TestNoCollisionWhenSequential(t *testing.T) {
	tp := topo.Line(3, 10)
	s := sim.New(1)
	c := NewChannel(s, tp, PerfectParams())
	got := 0
	t1 := c.Attach(1, nil)
	c.Attach(2, func(uint32, []byte) { got++ })
	t3 := c.Attach(3, nil)
	air := t1.Transmit(make([]byte, 50))
	s.After(air+10*time.Millisecond, func() { t3.Transmit(make([]byte, 50)) })
	for s.Step() {
	}
	if got != 2 {
		t.Errorf("sequential frames should both deliver, got %d", got)
	}
}

func TestHalfDuplex(t *testing.T) {
	// If the receiver transmits while a frame arrives, it misses it.
	s, c, t1, t2, log := pair(t, 10, PerfectParams(), 1)
	t1.Transmit(make([]byte, 100))
	s.After(2*time.Millisecond, func() { t2.Transmit(make([]byte, 10)) })
	for s.Step() {
	}
	for _, l := range *log {
		if l[0] == '2' {
			t.Error("node 2 must miss the frame while transmitting")
		}
	}
	if c.Stats().FramesHalfDuplex == 0 {
		t.Error("half-duplex miss should be counted")
	}
	// Node 1 must also miss node 2's frame: it was transmitting.
	if t1.Stats.FramesReceived != 0 {
		t.Error("node 1 was transmitting and must miss node 2's frame")
	}
}

func TestAsymmetricLinks(t *testing.T) {
	// With strong asymmetry at a borderline distance, some directed links
	// deliver while their reverse does not.
	p := PerfectParams()
	p.AsymmetrySigma = 3
	asymmetric := 0
	for seed := int64(0); seed < 200; seed++ {
		tp := topo.Line(2, 15)
		s := sim.New(seed)
		c := NewChannel(s, tp, p)
		// A link whose offset pushed it past MaxRange is not stored at all;
		// treat it as infinitely distant.
		effDist := func(a, b uint32) float64 {
			if l := c.link(a, b); l != nil {
				return l.effDist
			}
			return math.Inf(1)
		}
		fwd := effDist(1, 2)
		rev := effDist(2, 1)
		if (fwd < p.SolidRange) != (rev < p.SolidRange) {
			asymmetric++
		}
	}
	if asymmetric == 0 {
		t.Error("expected some asymmetric link realizations")
	}
}

func TestGilbertElliottIntermittency(t *testing.T) {
	// With a harsh bad state, a long frame train shows bursty loss.
	p := PerfectParams()
	p.MeanGood = 2 * time.Second
	p.MeanBad = 2 * time.Second
	p.BadLoss = 1.0
	s, _, t1, t2, _ := pair(t, 5, p, 3)
	const frames = 400
	for i := 0; i < frames; i++ {
		d := time.Duration(i) * 100 * time.Millisecond
		s.After(d, func() { t1.Transmit(make([]byte, 10)) })
	}
	for s.Step() {
	}
	got := t2.Stats.FramesReceived
	if got == 0 || got == frames {
		t.Errorf("intermittent link delivered %d/%d, want partial", got, frames)
	}
}

func TestDeterministicRealization(t *testing.T) {
	run := func() (int, int) {
		tp := topo.Testbed()
		s := sim.New(99)
		c := NewChannel(s, tp, DefaultParams())
		rx := 0
		var txs []*Transceiver
		for _, id := range tp.IDs() {
			txs = append(txs, c.Attach(id, func(uint32, []byte) { rx++ }))
		}
		for i, tx := range txs {
			d := time.Duration(i) * 50 * time.Millisecond
			tx := tx
			s.After(d, func() { tx.Transmit(make([]byte, 60)) })
		}
		for s.Step() {
		}
		return rx, c.Stats().FramesLost
	}
	r1, l1 := run()
	r2, l2 := run()
	if r1 != r2 || l1 != l2 {
		t.Errorf("same seed must reproduce: (%d,%d) vs (%d,%d)", r1, l1, r2, l2)
	}
	if r1 == 0 {
		t.Error("testbed broadcast should reach someone")
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping Transmit must panic")
		}
	}()
	_, _, t1, _, _ := pair(t, 10, PerfectParams(), 1)
	t1.Transmit(make([]byte, 100))
	t1.Transmit(make([]byte, 100))
}

func TestAttachValidation(t *testing.T) {
	s := sim.New(1)
	c := NewChannel(s, topo.Line(2, 5), PerfectParams())
	c.Attach(1, nil)
	for name, fn := range map[string]func(){
		"duplicate": func() { c.Attach(1, nil) },
		"unknown":   func() { c.Attach(77, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s Attach must panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEnergyTimeAccounting(t *testing.T) {
	s, c, t1, t2, _ := pair(t, 5, PerfectParams(), 1)
	air := t1.Transmit(make([]byte, 100))
	for s.Step() {
	}
	if t1.Stats.TxTime != air {
		t.Errorf("TxTime=%v want %v", t1.Stats.TxTime, air)
	}
	if t2.Stats.RxTime != air {
		t.Errorf("RxTime=%v want %v", t2.Stats.RxTime, air)
	}
	_ = c
}

func TestLossProbMonotone(t *testing.T) {
	s := sim.New(1)
	c := NewChannel(s, topo.Line(2, 5), DefaultParams())
	prev := -1.0
	for d := 0.0; d < 25; d += 0.25 {
		p := c.lossProb(d)
		if p < prev {
			t.Fatalf("loss probability must not decrease with distance (d=%v)", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("loss probability out of range at d=%v: %v", d, p)
		}
		prev = p
	}
	if c.lossProb(0) != DefaultParams().BaseLoss {
		t.Error("loss at zero distance should be the base loss")
	}
	if c.lossProb(100) != 1 {
		t.Error("loss beyond max range must be 1")
	}
}

func TestGilbertElliottLongRunFraction(t *testing.T) {
	// The bad-state fraction over a long horizon should approximate
	// MeanBad/(MeanGood+MeanBad).
	p := PerfectParams()
	p.MeanGood = 10 * time.Second
	p.MeanBad = 10 * time.Second
	s := sim.New(5)
	c := NewChannel(s, topo.Line(2, 5), p)
	l := c.link(1, 2)
	bad := 0
	const samples = 20000
	for i := 0; i < samples; i++ {
		s.After(100*time.Millisecond, func() {})
		for s.Step() {
		}
		if c.linkBad(l, s.Now()) {
			bad++
		}
	}
	frac := float64(bad) / samples
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("bad-state fraction %.3f, want ~0.5", frac)
	}
}

func TestCaptureEffect(t *testing.T) {
	// A close transmitter's frame survives an overlapping far one.
	tp := topo.New("capture")
	tp.Add(topo.Node{ID: 1, X: 0})  // receiver
	tp.Add(topo.Node{ID: 2, X: 3})  // close sender
	tp.Add(topo.Node{ID: 3, X: 17}) // far interferer (audible, fading)
	p := PerfectParams()
	p.CaptureRatio = 0.7
	s := sim.New(9)
	c := NewChannel(s, tp, p)
	var got []string
	c.Attach(1, func(from uint32, b []byte) { got = append(got, string(b)) })
	t2 := c.Attach(2, nil)
	t3 := c.Attach(3, nil)
	t3.Transmit([]byte("far"))
	s.After(time.Millisecond, func() { t2.Transmit([]byte("near")) })
	for s.Step() {
	}
	near := false
	for _, g := range got {
		if g == "far" {
			t.Error("the weaker overlapping frame must not survive")
		}
		if g == "near" {
			near = true
		}
	}
	if !near {
		t.Error("the stronger frame should capture the receiver")
	}
}

// linkDown reports whether the directed link from→to is forced down.
func linkDown(c *Channel, from, to uint32) bool {
	l := c.link(from, to)
	return l != nil && l.forcedDown
}

func TestForcedLinkBlackout(t *testing.T) {
	s, c, t1, _, log := pair(t, 10, PerfectParams(), 30)
	c.SetLinkDown(1, 2, true)
	if !linkDown(c, 1, 2) {
		t.Error("LinkDown(1,2) must report the blackout")
	}
	if linkDown(c, 2, 1) {
		t.Error("SetLinkDown is directional; 2->1 must stay up")
	}
	t1.Transmit([]byte("hi"))
	// Advance past the airtime by hand: with the link down no reception is
	// even scheduled, so draining events alone would not move the clock.
	s.RunUntil(s.Now() + time.Second)
	if len(*log) != 0 {
		t.Fatalf("delivery across a blacked-out link: %v", *log)
	}
	c.SetLinkDown(1, 2, false)
	t1.Transmit([]byte("hi"))
	s.RunUntil(s.Now() + time.Second)
	if len(*log) != 1 {
		t.Fatalf("delivery after restoration: %v", *log)
	}
}

func TestSetNodeDownSilencesBothDirections(t *testing.T) {
	s, c, t1, t2, log := pair(t, 10, PerfectParams(), 31)
	c.SetNodeDown(2, true)
	t1.Transmit([]byte("to2"))
	s.RunUntil(s.Now() + time.Second)
	t2.Transmit([]byte("from2"))
	s.RunUntil(s.Now() + time.Second)
	if len(*log) != 0 {
		t.Fatalf("a down node heard or was heard: %v", *log)
	}
	// A down node does not occupy the carrier either: 1 senses idle even
	// mid-transmission of 2.
	t2.Transmit([]byte("x"))
	s.RunUntil(s.Now() + time.Millisecond)
	if t1.Busy() {
		t.Error("down node's transmission held the carrier")
	}
	s.RunUntil(s.Now() + time.Second)
	c.SetNodeDown(2, false)
	t1.Transmit([]byte("to2"))
	s.RunUntil(s.Now() + time.Second)
	if len(*log) != 1 || (*log)[0] != "2<-to2" {
		t.Fatalf("delivery after node restore: %v", *log)
	}
}

func TestSetNodeDownRestoreClearsPerLinkBlackouts(t *testing.T) {
	_, c, _, _, _ := pair(t, 10, PerfectParams(), 32)
	c.SetLinkDown(1, 2, true)
	c.SetNodeDown(2, true)
	c.SetNodeDown(2, false)
	if linkDown(c, 1, 2) || linkDown(c, 2, 1) {
		t.Error("restoring a node must clear its links' blackouts")
	}
}

func TestSetLinkDownPanicsOnUnknownLink(t *testing.T) {
	_, c, _, _, _ := pair(t, 10, PerfectParams(), 33)
	defer func() {
		if recover() == nil {
			t.Error("SetLinkDown on an unknown link must panic")
		}
	}()
	c.SetLinkDown(1, 99, true)
}

// NewChannel skips most pairs without a Distance call; the links it builds
// must be exactly those of the plain loop over every ordered pair, kept here
// as the oracle: same receivers, in the same order, at bit-identical
// effective distances. Half the nodes sit on whole metres, so some pairs
// fall exactly on the cutoff, and a negative floor penalty pulls
// cross-floor pairs closer than their gap on either axis.
func TestChannelLinksMatchAllPairs(t *testing.T) {
	type got struct {
		to uint32
		d  float64
	}
	for _, penalty := range []float64{2, -3} {
		for _, sigma := range []float64{0, 0.8} {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tp := topo.New("random")
				tp.FloorPenalty = penalty
				for id := uint32(1); id <= 150; id++ {
					x, y := rng.Float64()*90, rng.Float64()*90
					if id%2 == 0 {
						x, y = math.Round(x), math.Round(y)
					}
					tp.Add(topo.Node{ID: id, X: x, Y: y, Floor: 10 + rng.Intn(2)})
				}
				p := DefaultParams()
				p.AsymmetrySigma = sigma
				s := sim.New(seed)
				c := NewChannel(s, tp, p)

				ids := tp.IDs()
				slices.Sort(ids)
				links := 0
				for _, a := range ids {
					var want []got
					for _, b := range ids {
						if a == b {
							continue
						}
						d := tp.Distance(a, b)
						if d >= p.audibleCutoff() {
							continue
						}
						lr := s.DeriveRand(sim.LinkStream(a, b)...)
						if p.AsymmetrySigma > 0 {
							d += lr.NormFloat64() * p.AsymmetrySigma
							if d < 0 {
								d = 0
							}
						}
						if d < p.MaxRange {
							want = append(want, got{b, d})
						}
					}
					var have []got
					i, _ := c.index(a)
					for _, l := range c.trx[i].out {
						have = append(have, got{l.to, l.effDist})
					}
					if !slices.Equal(have, want) {
						t.Fatalf("penalty %v sigma %v seed %d: node %d links to %v, all pairs give %v",
							penalty, sigma, seed, a, have, want)
					}
					links += len(want)
				}
				if links == 0 {
					t.Fatalf("penalty %v sigma %v seed %d: no links", penalty, sigma, seed)
				}
			}
		}
	}
}

// Every audible link of a testbed channel draws what a stream derived the
// old way, DeriveRand(LinkStream(a, b)), draws: its effective distance, its
// first Gilbert–Elliott sojourn and the 16 loss draws after them, so a
// reseeded link fails here by name.
func TestLinkStreamsMatchDeriveRand(t *testing.T) {
	tp, p := topo.Testbed(), DefaultParams()
	s := sim.New(7)
	c := NewChannel(s, tp, p)
	if len(c.links) == 0 {
		t.Fatal("no links")
	}
	for i := range c.trx {
		for _, l := range c.trx[i].out {
			a, b := c.trx[i].id, l.to
			old := s.DeriveRand(sim.LinkStream(a, b)...)
			d := max(tp.Distance(a, b)+old.NormFloat64()*p.AsymmetrySigma, 0)
			next := holdTime(old, p.MeanGood)
			if l.effDist != d || l.nextTransition != next {
				t.Errorf("link %d->%d: distance %v, first sojourn %v; DeriveRand gives %v, %v", a, b, l.effDist, l.nextTransition, d, next)
				continue
			}
			for k := 0; k < 16; k++ {
				if got, want := l.rng.Float64(), old.Float64(); got != want {
					t.Errorf("link %d->%d: draw %d is %v, DeriveRand's %v", a, b, k, got, want)
					break
				}
			}
		}
	}
}
