package core

import (
	"diffusion/internal/message"
	"diffusion/internal/telemetry"
)

// classSlugs are snake_case metric-name suffixes indexed by message class.
var classSlugs = [message.NumClasses]string{
	"interest", "data", "exploratory_data",
	"positive_reinforcement", "negative_reinforcement", "custody_ack",
}

// classSeries are the per-class counter names, sent and received, built
// once so that a scrape makes none.
var classSeries = func() (names [message.NumClasses][2]string) {
	for c, slug := range classSlugs {
		names[c] = [2]string{"core.sent." + slug, "core.received." + slug}
	}
	return names
}()

// Instrument publishes the diffusion core's counters and live table sizes
// on reg. Everything is read at snapshot time from the node's existing
// Stats struct and maps; the message hot path is untouched.
func (n *Node) Instrument(reg *telemetry.Registry) {
	reg.AddCollector(func(emit func(string, float64)) {
		s := &n.Stats
		emit("core.bytes_sent", float64(s.BytesSent))
		for c, names := range classSeries {
			emit(names[0], float64(s.SentByClass[c]))
			emit(names[1], float64(s.ReceivedByClass[c]))
		}
		emit("core.cache_hits", float64(s.Duplicates))
		emit("core.cache_misses", float64(s.SeenMisses))
		emit("core.local_deliveries", float64(s.LocalDeliveries))
		emit("core.data_suppressed", float64(s.DataSuppressed))
		emit("core.data_no_path", float64(s.DataNoPath))
		emit("core.neg_reinforcements", float64(s.NegReinforcements))
		emit("core.link_send_errors", float64(s.LinkSendErrors))
		emit("core.interests_seen", float64(s.InterestsSeen))
		emit("core.gradients_created", float64(s.GradientsCreated))
		emit("core.gradients_expired", float64(s.GradientsExpired))
		emit("core.neighbor_deaths", float64(s.NeighborDeaths))
		emit("core.neighbor_recoveries", float64(s.NeighborRecoveries))
		emit("core.filter_invocations", float64(s.FilterInvocations))
		emit("core.interest_entries", float64(len(n.entries)))
		emit("core.seen_cache_size", float64(n.SeenSize()))
		emit("core.seen_evicted", float64(s.SeenEvicted))
		emit("core.custody_captured", float64(s.CustodyCaptured))
		emit("core.receive_malformed", float64(s.ReceiveMalformed))
		ms := n.MatchStats()
		emit("match.index_keys", float64(ms.IndexKeys))
		emit("match.index_size", float64(ms.IndexSize)) // distinct stored vectors, not subscriptions
		emit("match.fallback_size", float64(ms.FallbackSize))
		emit("match.lookups", float64(ms.Lookups))
		emit("match.candidates_scanned", float64(ms.CandidatesScanned))
		emit("match.fallback_scans", float64(ms.FallbackScans))
		emit("match.hits", float64(ms.Hits))
		if q := n.cfg.Custody; q != nil {
			c := q.Counters()
			emit("custody.accepted", float64(c.Accepted))
			emit("custody.released", float64(c.Released))
			emit("custody.replayed", float64(c.Replayed))
			emit("custody.shed", float64(c.Shed))
			emit("custody.restored", float64(c.Restored))
			emit("custody.queue_len", float64(q.Len()))
			emit("custody.queue_limit", float64(q.Limit()))
		}
	})
}
