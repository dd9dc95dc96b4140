package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procSample is a snapshot of the process's own cost counters.
type procSample struct {
	cpu        time.Duration // user + system
	totalAlloc uint64        // bytes allocated since start
	gcCPU      float64       // seconds of GC CPU (runtime/metrics)
	allCPU     float64       // seconds of CPU the runtime accounts for
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuMetrics...)
	metrics.Read(s)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		allCPU:     s[1].Value.Float64(),
	}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
