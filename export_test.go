package diffusion

import (
	"time"

	"diffusion/internal/radio"
)

// OnDecode has fn see every frame the network's radio decodes, before the
// receiving MAC does (radio.Channel.OnDecode). The counts ledger hashes
// them.
func (net *Network) OnDecode(fn func(at time.Duration, from, to uint32, data []byte)) {
	net.channel.OnDecode(fn)
}

// RadioStats returns the node's physical-layer counters.
func (n *Node) RadioStats() radio.TransceiverStats { return n.MAC.Radio().Stats }

// SetFaultLimit overrides the fault-event bound. Fault events beyond it are
// dropped and counted in DroppedFaults.
func (t *Trace) SetFaultLimit(n int) { t.faultLimit = n }
