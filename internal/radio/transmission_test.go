package radio

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// Two senders out of each other's range whose frames end on the same
// nanosecond: 10 reaches {1,3,5,7,8,9}, 20 reaches {2,4,6,7,8,9}, so their
// end-of-frame runs interleave node by node, and every handler arms a
// zero-delay event that must run before the next node's end of frame. At 7
// (equidistant) both frames collide; 8 captures 10's frame, 9 captures 20's.
// The literal was recorded at 7c2f819, where every reception had its own
// pair of events; nodes are added out of ID order on purpose.
func TestSimultaneousEndOfFrameOrder(t *testing.T) {
	tp := topo.New("two-cells")
	for _, n := range []topo.Node{
		{ID: 9, X: 28}, {ID: 20, X: 40}, {ID: 4, X: 43}, {ID: 1, X: 5},
		{ID: 8, X: 22}, {ID: 6, X: 45}, {ID: 10, X: 10}, {ID: 3, X: 8, Y: 3},
		{ID: 2, X: 36}, {ID: 7, X: 25}, {ID: 5, X: 14},
	} {
		tp.Add(n)
	}
	s := sim.New(3)
	c := NewChannel(s, tp, PerfectParams())
	var log []string
	tr := map[uint32]*Transceiver{}
	for _, id := range tp.IDs() {
		id, port := id, s.Port(id)
		tr[id] = c.Attach(id, func(from uint32, b []byte) {
			log = append(log, fmt.Sprintf("%d<-%d", id, from))
			port.After(0, func() { log = append(log, fmt.Sprintf("z%d", id)) })
		})
	}
	// The longer frame starts first; both leave the air at 100 ms sharp.
	end := 100 * time.Millisecond
	s.After(end-c.Airtime(40), func() { tr[20].Transmit(make([]byte, 40)) })
	s.After(end-c.Airtime(20), func() { tr[10].Transmit(make([]byte, 20)) })
	for s.Step() {
	}
	const want = "1<-10 z1 2<-20 z2 3<-10 z3 4<-20 z4 5<-10 z5 6<-20 z6 8<-10 z8 9<-20 z9"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("handler order\n got %s\nwant %s", got, want)
	}
	if st := c.Stats(); st.FramesCollided != 4 || st.FramesDelivered != 8 {
		t.Errorf("stats %+v, want 4 collided (both at 7, the weaker at 8 and 9) and 8 delivered", st)
	}
}

// Back-to-back frames from one sender: each Transmit happens the instant
// the previous airtime ends, PropDelay before the previous frame's end of
// frame fires at the receivers, so two frames' records are in flight at once.
// Every receiver gets every frame once, in order, with its own bytes — which
// neither the caller's reuse of its buffer nor a later frame disturbs. A
// handler borrows its frame, so this one copies what it keeps.
func TestBackToBackFramesDoNotAlias(t *testing.T) {
	s := sim.New(4)
	c := NewChannel(s, topo.Grid(2, 2, 5), PerfectParams())
	type rxd struct {
		to, from uint32
		data     []byte
	}
	var got []rxd
	var sender *Transceiver
	for _, id := range c.ids {
		id := id
		tr := c.Attach(id, func(from uint32, b []byte) { got = append(got, rxd{id, from, slices.Clone(b)}) })
		if id == 1 {
			sender = tr
		}
	}
	const frames = 6
	buf := make([]byte, 12)
	sent := 0
	var next sim.Event
	next.Bind(func() {
		for i := range buf {
			buf[i] = byte('a' + sent)
		}
		sent++
		air := sender.Transmit(buf[:6+sent])
		buf[0] = '!' // the caller's buffer is its own again at once
		if sent < frames {
			s.Port(1).Arm(&next, air)
		}
	})
	s.Port(1).Arm(&next, time.Millisecond)
	for s.Step() {
	}
	if len(got) != 3*frames {
		t.Fatalf("%d deliveries, want %d", len(got), 3*frames)
	}
	for i, r := range got {
		f := i / 3
		want := strings.Repeat(string(rune('a'+f)), 7+f)
		if r.to != uint32(2+i%3) || r.from != 1 || string(r.data) != want {
			t.Errorf("delivery %d: %d<-%d %q, want %d<-1 %q", i, r.to, r.from, r.data, 2+i%3, want)
		}
	}
}

// The last receiver of a frame may transmit from inside its handler and
// still read its own frame afterwards: the record, whose buffer the handler
// borrows, is freed only once that handler has returned, so the reply
// cannot be copied into it.
func TestHandlerMayTransmitFromLastReception(t *testing.T) {
	s := sim.New(2)
	c := NewChannel(s, topo.Line(3, 5), PerfectParams())
	var log []string
	tr := map[uint32]*Transceiver{}
	for _, id := range c.ids {
		tr[id] = c.Attach(id, func(from uint32, b []byte) {
			log = append(log, fmt.Sprintf("%d<-%d %s", id, from, b))
			if id == 3 && from == 1 {
				tr[3].Transmit([]byte("reply"))
				if string(b) != "hello" {
					t.Errorf("after its own Transmit the handler reads %q, want hello", b)
				}
			}
		})
	}
	tr[1].Transmit([]byte("hello"))
	for s.Step() {
	}
	const want = "2<-1 hello 3<-1 hello 1<-3 reply 2<-3 reply"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("receptions\n got %s\nwant %s", got, want)
	}
}

// Blackouts are checked by the sender at Transmit, so a link severed or a
// receiver crashed while a frame is in the air changes nothing for that
// frame (a crashed node's MAC drops it as detached); the next frame is
// swallowed and counted.
func TestBlackoutWhileFrameInFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		down func(c *Channel, v bool)
	}{
		{"SetLinkDown", func(c *Channel, v bool) { c.SetLinkDown(1, 2, v) }},
		{"SetNodeDown", func(c *Channel, v bool) { c.SetNodeDown(2, v) }},
	} {
		s, c, t1, t2, log := pair(t, 10, PerfectParams(), 34)
		air := t1.Transmit([]byte("in flight"))
		s.After(air/2, func() { tc.down(c, true) })
		s.RunUntil(air / 2)
		if !t2.Busy() {
			t.Errorf("%s: the frame in flight must keep holding the carrier", tc.name)
		}
		s.RunUntil(time.Second)
		if len(*log) != 1 || (*log)[0] != "2<-in flight" {
			t.Errorf("%s mid-frame: delivery log %v, want the frame in flight", tc.name, *log)
		}
		t1.Transmit([]byte("swallowed"))
		s.RunUntil(2 * time.Second)
		if st := c.Stats(); len(*log) != 1 || st.FramesBlackout != 1 || st.FramesDelivered != 1 {
			t.Errorf("%s: log %v stats %+v, want the second frame blacked out", tc.name, *log, st)
		}
		tc.down(c, false)
		t1.Transmit([]byte("restored"))
		s.RunUntil(3 * time.Second)
		if len(*log) != 2 {
			t.Errorf("%s: no delivery after restoration: %v", tc.name, *log)
		}
	}
}
