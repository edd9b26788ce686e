package sim

// ForceParallelDispatch makes multi-shard windows spawn workers even on a
// one-CPU host, so external tests can put the race detector on the parallel
// path.
func (k *Kernel) ForceParallelDispatch() { k.serial = false }
