package sim

import "time"

// The frozen benchmark (cmd/diffbench) still builds its kernel micro-probe
// through the sharded kernel's constructor. These names keep it compiling
// over the one Engine; the shard and propagation arguments are accepted and
// unused. They go when a benchmark change drops the sim.shards4_speedup probe.

type KernelConfig struct {
	Seed        int64
	Shards      int
	Propagation time.Duration
}

func NewKernel(cfg KernelConfig) *Engine { return New(cfg.Seed) }

func (s *Engine) AddNode(id uint32, shard int) Port { return s.Port(id) }
