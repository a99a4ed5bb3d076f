package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median and percentile work on a copy; p is in [0,1]. Nearest-rank, so a
// reported percentile is always a value that was actually observed.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return per(sum, len(vals))
}

func maxOf(vals []float64) float64 {
	m := 0.0
	for _, v := range vals {
		m = max(m, v)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuNow is the process's CPU time so far (user+sys, all threads). Stage
// figures are charged in CPU time rather than wall time so that a stage
// measured single-threaded in the replay and the same work spread over two
// cores in the real run are the same quantity.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a snapshot of the process-wide cost counters a section is
// charged by difference.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

// usageNow opens a section: the clocks are read after the (stop-the-world)
// MemStats read, and since() reads them before its own, so a section is
// charged neither.
func usageNow() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{time.Now(), cpuNow(), m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

// cost is what a section consumed: usageNow() differences.
type cost struct {
	Wall    time.Duration
	CPU     time.Duration
	Mallocs uint64
	Bytes   uint64
	GCs     uint32
	PauseNs uint64
}

func (u usage) since() cost {
	wall, cpu := time.Since(u.wall), cpuNow()-u.cpu
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return cost{wall, cpu, m.Mallocs - u.mallocs, m.TotalAlloc - u.bytes, m.NumGC - u.gcs, m.PauseTotalNs - u.pauseNs}
}

func (c *cost) add(o cost) {
	c.Wall += o.Wall
	c.CPU += o.CPU
	c.Mallocs += o.Mallocs
	c.Bytes += o.Bytes
	c.GCs += o.GCs
	c.PauseNs += o.PauseNs
}

// windowedRate splits per-item durations (seconds, in run order) into up to
// k windows of equal item count and returns the median of the windows'
// rates in units per second. A disturbance that slows one stretch of the
// run moves one window, not the result; every kind of item still counts,
// because each window holds the run's usual mix.
func windowedRate(secs []float64, unitsPerItem float64, k int) float64 {
	if len(secs) == 0 {
		return 0
	}
	k = max(1, min(k, len(secs)/2))
	rates := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		lo, hi := w*len(secs)/k, (w+1)*len(secs)/k
		sum := 0.0
		for _, s := range secs[lo:hi] {
			sum += s
		}
		if sum > 0 {
			rates = append(rates, float64(hi-lo)*unitsPerItem/sum)
		}
	}
	return median(rates)
}

// rateWindows is how many windows a throughput is the median of.
const rateWindows = 8

// per divides a figure by a unit count, 0 when nothing was counted.
func per(total float64, units int) float64 {
	if units <= 0 {
		return 0
	}
	return total / float64(units)
}

// heapLiveMB forces a collection and reports what survives it.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pool victim caches held
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// heapSampler records the peak HeapAlloc every 50 ms (traced runs only:
// ReadMemStats stops the world).
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		var m runtime.MemStats
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&m)
				h.peak = max(h.peak, m.HeapAlloc)
			}
		}
	}()
	return h
}

func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}
