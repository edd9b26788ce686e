package experiments

import (
	"testing"
	"time"
)

func TestParallelScaleSmall(t *testing.T) {
	// A shrunken grid keeps the test fast; the 1024-node run is pinned in
	// the root package's determinism tests. The fingerprint was recorded on
	// the sharded kernel (PR 14, c398a3a), at every shard count.
	cfg := ParallelScaleConfig{
		Seed:           3,
		Side:           8,
		Spacing:        9,
		Duration:       45 * time.Second,
		ReportInterval: 5 * time.Second,
		TraceLimit:     50_000,
	}
	_, delivered, sha := MeasureParallelScale(cfg, 1)
	if delivered != 48 || sha != "cfca6537d145217d" {
		t.Errorf("8x8 grid: %d deliveries, fingerprint %s; pinned 48 and cfca6537d145217d", delivered, sha)
	}
}
