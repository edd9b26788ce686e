package mac

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// refTrain is one message under reassembly in refReasm.
type refTrain struct {
	count    int
	frags    map[int][]byte
	deadline time.Duration
}

// refReasm is the reassembly rule written plainly, with a map: what
// onFrame must deliver and expire, fragment for fragment.
type refReasm struct {
	fp, max   int
	timeout   time.Duration
	trains    map[reasmKey]*refTrain
	expired   int
	delivered [][]byte
}

// expire drops every train due at now.
func (r *refReasm) expire(now time.Duration) {
	for k, tr := range r.trains {
		if tr.deadline <= now {
			delete(r.trains, k)
			r.expired++
		}
	}
}

// frame takes one fragment of message (src, seq) ending at now.
func (r *refReasm) frame(now time.Duration, src uint32, seq uint16, idx, count int, frag []byte) {
	r.expire(now)
	if count == 0 || idx >= count || count > r.max || len(frag) > r.fp || (idx < count-1 && len(frag) != r.fp) {
		return
	}
	k := reasmKey{src: src, seq: seq}
	tr, ok := r.trains[k]
	if !ok {
		tr = &refTrain{count: count, frags: map[int][]byte{}, deadline: now + r.timeout}
		r.trains[k] = tr
	}
	if _, dup := tr.frags[idx]; dup || tr.count != count {
		return
	}
	tr.frags[idx] = slices.Clone(frag)
	if len(tr.frags) < count {
		return
	}
	var msg []byte
	for i := 0; i < count; i++ {
		msg = append(msg, tr.frags[i]...)
	}
	delete(r.trains, k)
	r.delivered = append(r.delivered, msg)
}

// FuzzReassembly drives one MAC's onFrame with arbitrary fragments and
// pauses and compares it, step by step, with refReasm: the same messages
// delivered in the same order, the same expiries, the same number under
// reassembly. Each frame reaches onFrame through one scratch buffer that is
// overwritten after the call, as the radio lends it. A payload is lent in
// turn: its bytes are compared as the handler saw them, and once onFrame
// returns it must read zero, the MAC having cleared it for reuse.
//
// The input is a list of operations. A byte with its top bit set is a
// pause of its low seven bits in milliseconds. Any other byte b starts a
// frame and is followed by four more: seq, idx, count and length. The frame
// comes from sender 2+b%4 and goes to the broadcast address, or to another
// node when b&4 is set; its payload is length%7 bytes of a running counter.
func FuzzReassembly(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 0, 1, 1, 2, 1})                      // one message in order
	f.Add([]byte{1, 1, 1, 2, 2, 1, 1, 0, 2, 3})                      // and back to front
	f.Add([]byte{0, 1, 0, 3, 3, 1, 1, 0, 2, 3, 0xFF, 0, 1, 1, 3, 3}) // overlapped, expired, late
	f.Add([]byte{0, 1, 0, 2, 2, 0, 1, 1, 2, 3, 0, 1, 0, 3, 3})       // a short first fragment
	f.Add([]byte{0, 1, 0, 2, 3, 0, 1, 0, 2, 3, 0, 1, 1, 2, 1})       // a duplicate: the first copy counts
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := DefaultParams()
		p.FragmentPayload, p.MaxPayload, p.ReassemblyTimeout = 3, 3*maxFragments, 200*time.Millisecond
		s := sim.New(1)
		ch := radio.NewChannel(s, topo.Line(2, 5), radio.PerfectParams())
		var lent, kept [][]byte
		rx := Attach(s.Port(1), ch, 1, p, func(_ uint32, b []byte) {
			lent, kept = append(lent, b), append(kept, slices.Clone(b))
		})
		ref := &refReasm{fp: p.FragmentPayload, max: maxFragments, timeout: p.ReassemblyTimeout, trains: map[reasmKey]*refTrain{}}
		scratch := make([]byte, fragHeaderSize+8)
		var counter byte
		for len(ops) > 0 {
			op := ops[0]
			if op&0x80 != 0 {
				s.RunUntil(s.Now() + time.Duration(op&0x7F)*time.Millisecond)
				ref.expire(s.Now())
				ops = ops[1:]
			} else {
				if len(ops) < 5 {
					return
				}
				src, dst := uint32(2+op%4), wireBroadcast
				if op&4 != 0 {
					dst = 3
				}
				seq, idx, count, n := uint16(ops[1]), int(ops[2]), int(ops[3]), int(ops[4]%7)
				ops = ops[5:]
				frame := binary.BigEndian.AppendUint16(scratch[:0], dst)
				frame = binary.BigEndian.AppendUint16(frame, uint16(src))
				frame = binary.BigEndian.AppendUint16(frame, seq)
				frame = append(frame, byte(idx), byte(count))
				for i := 0; i < n; i++ {
					counter++
					frame = append(frame, counter)
				}
				rx.onFrame(src, frame)
				for _, b := range lent {
					if slices.ContainsFunc(b, func(c byte) bool { return c != 0 }) {
						t.Fatalf("at %v: a payload reads %x after the handler returned, want zeros", s.Now(), b)
					}
				}
				lent = lent[:0]
				if dst == wireBroadcast {
					ref.frame(s.Now(), src, seq, idx, count, frame[fragHeaderSize:])
				} else {
					ref.expire(s.Now())
				}
				for i := range scratch {
					scratch[i] = 0xEE
				}
			}
			if len(kept) != len(ref.delivered) || rx.Stats.ReassemblyExpired != ref.expired || len(rx.reasm) != len(ref.trains) {
				t.Fatalf("at %v: %d delivered, %d expired, %d pending; the reference %d, %d, %d",
					s.Now(), len(kept), rx.Stats.ReassemblyExpired, len(rx.reasm), len(ref.delivered), ref.expired, len(ref.trains))
			}
			for i, b := range ref.delivered {
				if !bytes.Equal(kept[i], b) {
					t.Fatalf("delivery %d is %x, the reference %x", i, kept[i], b)
				}
			}
		}
		s.RunUntil(s.Now() + p.ReassemblyTimeout)
		ref.expire(s.Now())
		if rx.Stats.ReassemblyExpired != ref.expired || len(rx.reasm) != 0 || len(rx.bufs) > maxBufs {
			t.Fatalf("drained: %d expired, %d pending, %d idle buffers; the reference %d, 0, at most %d",
				rx.Stats.ReassemblyExpired, len(rx.reasm), len(rx.bufs), ref.expired, maxBufs)
		}
	})
}
