package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
)

// quartiles returns the first and third quartiles of values as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so spreads read the same as the ones the benchmark contract
// is checked with. It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	d := sorted(values)
	n, m := 4, len(d)+1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0-100) by linear interpolation
// between closest ranks; it never extrapolates past the extremes.
func percentile(values []float64, p float64) float64 {
	d := sorted(values)
	if len(d) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(d)-1)
	lo := int(pos)
	if lo+1 >= len(d) {
		return d[len(d)-1]
	}
	return d[lo] + (d[lo+1]-d[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 50) }

func sorted(values []float64) []float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	return d
}

// hostSnap is a point-in-time reading of the Go runtime's allocation
// and CPU accounting.
type hostSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var hostSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readHost() hostSnap {
	s := make([]metrics.Sample, len(hostSamples))
	for i, name := range hostSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return hostSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
