package filters

import (
	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
)

// NestedQueryResponder implements the triggered-sensor side of a nested
// query (section 5.2): "nested queries can be implemented by enabling code
// at each triggered sensor that watches for a nested query. This code then
// sub-tasks the relevant initial sensors and activates its local triggered
// sensor on demand."
//
// The responder passively watches for the nested-query interest; on its
// first arrival it publishes the triggered sensor's data and subscribes to
// the initial sensors. Each initial-sensor report is handed to OnInitial,
// whose non-nil result is sent as triggered data — localizing the
// initial-sensor traffic near the triggering event instead of hauling it
// to the distant user.
type NestedQueryResponder struct {
	cfg    NestedQueryConfig
	watch  core.SubscriptionHandle
	sub    core.SubscriptionHandle
	pub    core.PublicationHandle
	active bool

	// Activations counts watch hits that (re)confirmed the nested query;
	// Reports counts triggered data messages sent.
	Activations, Reports int
}

// NestedQueryConfig configures a responder.
type NestedQueryConfig struct {
	Node *core.Node
	// TriggerWatch is the passive interest tap identifying the nested
	// query: it must contain a "class EQ interest" formal plus actuals
	// satisfying the query's formals (section 3.2 style).
	TriggerWatch attr.Vec
	// InitialInterest is the sub-task subscription issued toward the
	// initial sensors once the nested query arrives.
	InitialInterest attr.Vec
	// Publication describes the triggered sensor's data.
	Publication attr.Vec
	// OnInitial inspects each initial-sensor report and returns the extra
	// attributes of the triggered data to send, or nil to stay silent.
	OnInitial func(m *message.Message) attr.Vec
}

// NewNestedQueryResponder installs the responder on cfg.Node.
func NewNestedQueryResponder(cfg NestedQueryConfig) *NestedQueryResponder {
	if cfg.Node == nil || cfg.OnInitial == nil {
		panic("filters: NestedQueryConfig requires Node and OnInitial")
	}
	r := &NestedQueryResponder{cfg: cfg}
	r.watch = cfg.Node.Subscribe(cfg.TriggerWatch, r.onQuery)
	return r
}

// Active reports whether the nested query has been activated.
func (r *NestedQueryResponder) Active() bool { return r.active }

// Close removes all responder state from the node: the sub-task, the
// publication and the watch.
func (r *NestedQueryResponder) Close() {
	if r.active {
		r.active = false
		_ = r.cfg.Node.Unsubscribe(r.sub)
		_ = r.cfg.Node.Unpublish(r.pub)
	}
	_ = r.cfg.Node.Unsubscribe(r.watch)
}

func (r *NestedQueryResponder) onQuery(*message.Message) {
	r.Activations++
	if r.active {
		return
	}
	r.active = true
	r.pub = r.cfg.Node.Publish(r.cfg.Publication)
	r.sub = r.cfg.Node.Subscribe(r.cfg.InitialInterest, r.onInitial)
}

func (r *NestedQueryResponder) onInitial(m *message.Message) {
	extra := r.cfg.OnInitial(m)
	if extra == nil {
		return
	}
	r.Reports++
	_ = r.cfg.Node.Send(r.pub, extra)
}
