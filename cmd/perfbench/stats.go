package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

func toMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the q-quantile (0..1) of values by nearest rank on a
// sorted copy; 0 for an empty sample.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(values []float64) float64 { return percentile(values, 0.5) }

func sum(values []float64) float64 {
	t := 0.0
	for _, v := range values {
		t += v
	}
	return t
}

func maxOf(values []float64) float64 {
	m := 0.0
	for _, v := range values {
		if v > m {
			m = v
		}
	}
	return m
}

// ratio is a/b, and 0 when b is 0: a layer that did no work on this
// workload reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSnapshot is the process-wide cost read at the edges of a measured
// phase: peak RSS from getrusage, allocation and GC totals from the
// runtime.
type procSnapshot struct {
	peakRSSMB  float64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSnapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // as above
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{
		peakRSSMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// goroutineSampler tracks the peak goroutine count over a phase.
type goroutineSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int
}

func startGoroutineSampler() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{}), peak: runtime.NumGoroutine()}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > g.peak {
					g.peak = n
				}
			}
		}
	}()
	return g
}

func (g *goroutineSampler) finish() int {
	close(g.stop)
	g.wg.Wait()
	return g.peak
}
