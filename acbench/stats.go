package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"acstab/internal/obs"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Samples are allocated once so that reading them allocates nothing.
var (
	allocBytes   = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocObjects = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
)

// heapAllocBytes is the cumulative Go heap allocation of the process.
func heapAllocBytes() uint64 {
	metrics.Read(allocBytes)
	return allocBytes[0].Value.Uint64()
}

// heapObjects is the cumulative count of Go heap allocations.
func heapObjects() uint64 {
	metrics.Read(allocObjects)
	return allocObjects[0].Value.Uint64()
}

// counter reads a process-wide obs counter, the same value /metrics
// serves.
func counter(name string) int64 { return obs.Default.Counter(name).Value() }

// symbolicCount moves only when an AC sweep takes the sparse route.
func symbolicCount() int64 {
	return counter("acstab_ac_symbolic_builds_total") + counter("acstab_ac_symbolic_reuses_total")
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
