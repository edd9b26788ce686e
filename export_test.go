package diffusion

import "time"

// OnDecode has fn see every frame the network's radio decodes, before the
// receiving MAC does (radio.Channel.OnDecode). The counts ledger hashes
// them.
func (net *Network) OnDecode(fn func(at time.Duration, from, to uint32, data []byte)) {
	net.channel.OnDecode(fn)
}
