package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// mallocs is the process-wide count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapLiveMiB forces a collection and returns the bytes still reachable.
func heapLiveMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortInt64(xs []int64) { slices.Sort(xs) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sumFloat(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// quantileFloat is the nearest-rank p-quantile of xs.
func quantileFloat(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(int(p*float64(len(s))), len(s)-1)]
}

// deriveSeeds derives n seeds from -seed.
func deriveSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// timeOp times fn in five batches sized to fill budget and returns the
// median batch's ns per call and the mean allocations per call. Nothing
// else may be running: allocations are read from the process-wide counter.
func timeOp(budget time.Duration, fn func()) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el := time.Since(start); el >= budget/10 || n >= 1<<26 {
			break
		}
		n *= 2
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	var batches []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&ms)
	return medianFloat(batches), float64(ms.Mallocs-before) / float64(5*n)
}

// hostInfo is the fingerprint printed with every run, read from the host
// and never typed.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Loopback   string `json:"loopback"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Loopback:   "none",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if ifs, err := net.Interfaces(); err == nil {
		for _, in := range ifs {
			if in.Flags&net.FlagLoopback != 0 {
				h.Loopback = fmt.Sprintf("%s mtu %d", in.Name, in.MTU)
				break
			}
		}
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d %s %s loopback=%q",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.OSArch, h.Loopback)
}
