package main

import (
	"math/rand"
	"runtime"
	"time"
)

// The host this benchmark runs on is shared: neighbours take its cores and
// caches for minutes at a time, and identical runs then differ by a factor
// of two to six in wall and in CPU time; quieter changes move latency and
// throughput by a third for quarter-hours. Every host time among the
// end-to-end metrics is therefore taken against a calibration kernel run
// immediately before and after each measured slice, and expressed in
// reference-host time: the time the slice would have taken on a host that
// runs the kernel in exactly calibNominal, which is what this class of host
// takes on an ordinary day. The kernel is the benchmark's own
// code — integer arithmetic, a dependent walk through 4 MiB (past the private
// caches) and map updates, allocation-free — and never calls into the
// repository, so a change to the program cannot move it.

const (
	calibNominal = 1350 * time.Microsecond
	calibWalk    = 1 << 20 // uint32 entries, 4 MiB
	calibRepeats = 3
)

// calib is one run of the kernel.
type calib struct{ wall, cpu time.Duration }

// calibrator owns the kernel's working set.
type calibrator struct {
	walk  []uint32 // one random cycle through all entries
	table map[uint32]uint32
}

func (c *calibrator) build() {
	rng := rand.New(rand.NewSource(1))
	c.walk = make([]uint32, calibWalk)
	for i := range c.walk {
		c.walk[i] = uint32(i)
	}
	// Sattolo's shuffle: a single cycle, so the walk never falls into a
	// short loop that fits a cache.
	for i := len(c.walk) - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.walk[i], c.walk[j] = c.walk[j], c.walk[i]
	}
	c.table = make(map[uint32]uint32, 4096)
	for k := uint32(0); k < 4096; k++ {
		c.table[k] = k
	}
}

// release drops the working set so it does not count as live heap.
func (c *calibrator) release() { c.walk, c.table = nil, nil }

var calibSink uint32

func kernel(walk []uint32, m map[uint32]uint32, at uint32) uint32 {
	acc := uint64(at) | 1
	for i := 0; i < 8000; i++ {
		at = walk[at]
		acc = acc*6364136223846793005 + uint64(at)
		if i&3 == 0 {
			m[at&4095] += uint32(acc >> 33)
		}
	}
	for i := 0; i < 200000; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return uint32(acc>>32) ^ at
}

// run times the kernel calibRepeats times on the caller's thread and keeps
// the fastest wall and CPU time: the first pass refills the caches the
// workload just used, and a pass that was descheduled for the workload's own
// garbage collector is not the host's doing. CPU time is the thread's, so
// nothing else the process runs meanwhile is counted.
func (c *calibrator) run() calib {
	if c.walk == nil {
		c.build()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var best calib
	for i := uint32(0); i < calibRepeats; i++ {
		cpu0, start := threadCPU(), time.Now()
		calibSink += kernel(c.walk, c.table, i*7919)
		got := calib{wall: time.Since(start), cpu: threadCPU() - cpu0}
		if i == 0 || got.wall < best.wall {
			best.wall = got.wall
		}
		if i == 0 || got.cpu < best.cpu {
			best.cpu = got.cpu
		}
	}
	return best
}

// slice is one measured interval with the calibrations around it.
type slice struct {
	wall, cpu     time.Duration
	before, after calib
}

// slower is how many times slower than the reference host the host ran
// during the interval.
func (s slice) slower() float64 {
	return float64(s.before.wall+s.after.wall) / float64(2*calibNominal)
}

// refWall is the interval's wall time on the reference host, in seconds.
// Only the part the process spent on a processor is scaled; the part it
// spent waiting — for a timer, for the kernel's network path — is not the
// host's speed.
func (s slice) refWall() float64 {
	busy := min(s.wall, s.cpu)
	return (s.wall - busy).Seconds() + busy.Seconds()/s.slower()
}

// refCPU is the process CPU the interval used, on the reference host, in
// seconds.
func (s slice) refCPU() float64 {
	return s.cpu.Seconds() * float64(2*calibNominal) / float64(s.before.cpu+s.after.cpu)
}

// quietTenth turns slices and the work each one did into a rate and a
// processor cost: work per reference second in the fastest tenth of the
// slices, and reference CPU seconds per unit of work in the cheapest tenth.
// Interference — a stolen processor, a neighbour in the cache — only ever
// slows a slice down, so the fast tail is what the program does when the host
// leaves it alone, and it repeats where the median does not.
func quietTenth(slices []slice, work []float64) (perSecond, cpuSeconds float64) {
	var rate, cost []float64
	for i, s := range slices {
		if work[i] > 0 {
			rate = append(rate, work[i]/s.refWall())
			cost = append(cost, s.refCPU()/work[i])
		}
	}
	return quantileFloat(rate, 0.9), quantileFloat(cost, 0.1)
}

// slicer measures consecutive intervals; neighbours share the calibration
// between them.
type slicer struct {
	cal   calibrator
	prev  calib
	fresh bool // prev was taken just now
	start time.Time
	cpu0  time.Duration
}

func (s *slicer) begin() {
	if !s.fresh {
		s.prev = s.cal.run()
	}
	s.fresh = false
	s.start, s.cpu0 = time.Now(), processCPU()
}

func (s *slicer) end() slice {
	sl := slice{wall: time.Since(s.start), cpu: processCPU() - s.cpu0, before: s.prev}
	sl.after = s.cal.run()
	s.prev, s.fresh = sl.after, true
	return sl
}

// stale marks the last calibration too old to bracket the next interval.
func (s *slicer) stale() { s.fresh = false }
