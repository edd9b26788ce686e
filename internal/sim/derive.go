package sim

import "math/rand"

// Seed-stream derivation. Every random stream in a simulation — the
// global stream, one per node, one per directed radio link — is derived
// from the master seed and a tag path with a splitmix64-style mixer, so:
//
//   - adding or removing a stream never perturbs any other stream, and
//   - no stream's draws depend on the order in which other contexts'
//     events execute.

// splitmix64 advances a splitmix64 state and returns the mixed output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// DeriveSeed mixes a master seed with a tag path into an independent
// stream seed. Distinct tag paths give statistically independent streams.
func DeriveSeed(seed int64, tags ...uint64) int64 {
	state := uint64(seed)
	out := splitmix64(&state)
	for _, t := range tags {
		state ^= t * 0xFF51AFD7ED558CCD
		out = splitmix64(&state)
	}
	return int64(out)
}

// smSource is a splitmix64 rand.Source64: two words of state, so a
// thousand-node network can afford one independent stream per directed
// link (math/rand's default source is ~5 KB per instance).
type smSource struct{ state uint64 }

func (s *smSource) Uint64() uint64  { return splitmix64(&s.state) }
func (s *smSource) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *smSource) Seed(seed int64) { s.state = uint64(seed) }

// newDerivedRand returns a lightweight deterministic *rand.Rand for the
// derived stream (seed, tags...).
func newDerivedRand(seed int64, tags ...uint64) *rand.Rand {
	return rand.New(&smSource{state: uint64(DeriveSeed(seed, tags...))})
}

// Well-known stream tags.
const (
	// streamNode prefixes per-node streams: (streamNode, nodeID).
	streamNode uint64 = 1
	// streamLink prefixes per-directed-link streams: (streamLink, from, to).
	streamLink uint64 = 2
)

// NodeStream returns the tag path of node id's stream.
func NodeStream(id uint32) []uint64 { return []uint64{streamNode, uint64(id)} }

// LinkStream returns the tag path of the directed link from→to's stream.
func LinkStream(from, to uint32) []uint64 {
	return []uint64{streamLink, uint64(from), uint64(to)}
}
