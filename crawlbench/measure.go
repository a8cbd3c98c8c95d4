package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// window is one measured interval: a timed iteration of a workload.
type window struct {
	wall  time.Duration
	cpu   time.Duration // process user+sys
	alloc uint64        // bytes allocated (MemStats.TotalAlloc delta)
	peak  uint64        // highest sampled HeapInuse
	pages int
}

// plus joins two windows measured one after the other.
func (w window) plus(o window) window {
	return window{wall: w.wall + o.wall, cpu: w.cpu + o.cpu, alloc: w.alloc + o.alloc, peak: max(w.peak, o.peak), pages: w.pages + o.pages}
}

// Meter times iterations. Between Start and Stop a sampler goroutine
// reads HeapInuse (objects plus unused heap spans, from runtime/metrics,
// which does not stop the world) every sampleEvery. A Meter may open
// several windows one after another.
type Meter struct {
	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64

	peak    atomic.Uint64
	stop    chan struct{}
	stopped sync.WaitGroup
}

const sampleEvery = 2 * time.Millisecond

var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Start opens a window.
func (m *Meter) Start() {
	m.alloc0 = totalAlloc()
	s := append([]metrics.Sample(nil), heapSamples...)
	m.peak.Store(heapInuse(s))
	m.stop = make(chan struct{})
	m.stopped.Add(1)
	go func() {
		defer m.stopped.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			if v := heapInuse(s); v > m.peak.Load() {
				m.peak.Store(v)
			}
		}
	}()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

// Stop closes the window and returns its measurements.
func (m *Meter) Stop(pages int) window {
	wall := time.Since(m.t0)
	cpu := cpuTime() - m.cpu0
	close(m.stop)
	m.stopped.Wait()
	return window{wall: wall, cpu: cpu, alloc: totalAlloc() - m.alloc0, peak: m.peak.Load(), pages: pages}
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd reduces the timed windows to the end-to-end metrics: the
// median over windows of each per-window ratio.
func endToEnd(ws []window, attempted, failed int) map[string]float64 {
	var rate, cpu, alloc, peak []float64
	for _, w := range ws {
		if w.pages == 0 || w.wall <= 0 {
			continue
		}
		p := float64(w.pages)
		rate = append(rate, p/w.wall.Seconds())
		cpu = append(cpu, float64(w.cpu)/1e6/p*1000)
		alloc = append(alloc, float64(w.alloc)/1024/p)
		peak = append(peak, float64(w.peak)/(1<<20))
	}
	ok := 1.0
	if attempted > 0 {
		ok = 1 - float64(failed)/float64(attempted)
	}
	return map[string]float64{
		"pages_per_s":       median(rate),
		"cpu_ms_per_kpage":  median(cpu),
		"alloc_kb_per_page": median(alloc),
		"peak_heap_mb":      median(peak),
		"ok_frac":           ok,
	}
}
