package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID, which package syscall does not
// name. getrusage(RUSAGE_THREAD) would do, but it counts in scheduler ticks
// here and reads 0 over a millisecond.
const clockThreadCPU = 3

// threadCPU returns the CPU time the calling thread has used. The caller
// must hold runtime.LockOSThread across the interval it measures.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
