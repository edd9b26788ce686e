package filters

import (
	"fmt"
	"io"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
)

// Tap is a pass-through observation filter. The paper notes filters are
// "very useful for debugging and monitoring"; Tap records or logs every
// matching message without perturbing diffusion.
type Tap struct {
	node   *core.Node
	handle core.FilterHandle

	// Count per message class.
	Count [5]int
	// Last holds the most recent matching message (cloned).
	Last *message.Message

	w io.Writer
}

// NewTap installs a tap on n for messages matching pattern (nil = all).
// If w is non-nil every message is also printed to it. The tap runs at a
// very high priority so it sees messages before other filters.
func NewTap(n *core.Node, pattern attr.Vec, w io.Writer) *Tap {
	t := &Tap{node: n, w: w}
	t.handle = n.AddFilter(pattern, 30000, t.onMessage)
	return t
}

// Remove uninstalls the tap.
func (t *Tap) Remove() { _ = t.node.RemoveFilter(t.handle) }

func (t *Tap) onMessage(m *message.Message, h core.FilterHandle) {
	if int(m.Class) < len(t.Count) {
		t.Count[m.Class]++
	}
	t.Last = m.Clone()
	if t.w != nil {
		fmt.Fprintf(t.w, "tap@%d %v\n", t.node.ID(), m)
	}
	t.node.SendMessageToNext(m, h)
}
