package filters

import (
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// Fusion is the collaborative signal processing filter the paper leaves as
// future work (section 5.3: "at the time our filter architecture was not
// in place; interesting future work is to evaluate how sensor fusion would
// be done as a filter", and section 5.1's example output: "seismic and
// infrared sensors indicate 80% chance of detection").
//
// The filter holds the first detection of an event for a short window,
// folds in detections of the same event from other sensor modalities, and
// forwards a single fused report: confidences combine as independent
// evidence (1 − ∏(1−pᵢ)), and the contributing modalities are recorded in
// a subtype attribute.
type Fusion struct {
	node   *core.Node
	clock  sim.Clock
	handle core.FilterHandle

	window  time.Duration
	pending map[string]*fusionEvent
	idBuf   []byte // scratch for the identity of the message in hand

	// Fused counts detections folded into pending reports; Reports counts
	// fused messages sent onward.
	Fused, Reports int
}

// fusionKeys identify an event: one detection per modality shares them.
var fusionKeys = []attr.Key{attr.KeyTask, attr.KeySequence}

type fusionEvent struct {
	msg        *message.Message
	handle     core.FilterHandle
	miss       float64 // ∏(1−pᵢ)
	modalities []byte  // joined with "+", copied out of the lent messages
	count      int32
}

// NewFusion installs the fusion filter on n for messages matching pattern.
// Events are identified by (task, sequence); modalities by the type
// attribute; confidence by the confidence attribute.
func NewFusion(n *core.Node, clock sim.Clock, pattern attr.Vec, window time.Duration) *Fusion {
	if window <= 0 {
		window = 500 * time.Millisecond
	}
	f := &Fusion{
		node:    n,
		clock:   clock,
		window:  window,
		pending: map[string]*fusionEvent{},
	}
	f.handle = n.AddFilter(pattern, 110, f.onMessage)
	return f
}

// Remove uninstalls the filter.
func (f *Fusion) Remove() { _ = f.node.RemoveFilter(f.handle) }

func (f *Fusion) onMessage(m *message.Message, h core.FilterHandle) {
	if !m.IsData() {
		f.node.SendMessageToNext(m, h)
		return
	}
	var ok bool
	if f.idBuf, ok = appendIdentity(f.idBuf[:0], m.Attrs, fusionKeys); !ok {
		f.node.SendMessageToNext(m, h)
		return
	}
	conf := 0.0
	if a, ok := m.Attrs.FindActual(attr.KeyConfidence); ok && a.Val.Numeric() {
		conf = a.Val.AsFloat()
	}
	if conf < 0 {
		conf = 0
	}
	if conf > 1 {
		conf = 1
	}
	modality := "unknown"
	if a, ok := m.Attrs.FindActual(attr.KeyType); ok && a.Val.Type == attr.TypeString {
		modality = a.Val.Str()
	}

	if ev, exists := f.pending[string(f.idBuf)]; exists {
		ev.miss *= 1 - conf
		ev.modalities = append(append(ev.modalities, '+'), modality...)
		ev.count++
		f.Fused++
		return
	}
	id := string(f.idBuf)
	f.pending[id] = &fusionEvent{
		msg:        m.Clone(),
		handle:     h,
		miss:       1 - conf,
		modalities: []byte(modality),
		count:      1,
	}
	f.clock.After(f.window, func() { f.flush(id) })
}

func (f *Fusion) flush(id string) {
	ev, ok := f.pending[id]
	if !ok {
		return
	}
	delete(f.pending, id)
	f.Reports++
	out := ev.msg
	fused := 1 - ev.miss
	out.Attrs = out.Attrs.
		Without(attr.KeyConfidence).
		Without(attr.KeySubtype).
		With(
			attr.Float64Attr(attr.KeyConfidence, attr.IS, fused),
			attr.StringAttr(attr.KeySubtype, attr.IS, string(ev.modalities)),
			attr.Int32Attr(attr.KeyCount, attr.IS, ev.count),
		)
	f.node.SendMessageToNext(out, ev.handle)
}
