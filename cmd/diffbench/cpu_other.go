//go:build !linux

package main

import "time"

// Off Linux the benchmark still builds and runs, but CPU time reads zero:
// cpu_us_per_event is then reported as not measured and the run as
// incorrect rather than silently wrong.

func processCPU() time.Duration { return 0 }

func threadCPU() time.Duration { return 0 }
