package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// meter times the samples of one pass: each sample's rate and the heap
// peak within it, and, through probe, the machine's speed after it.
type meter struct {
	ph        *phase
	workers   int
	heap      *heapSampler
	start     time.Time
	sample    time.Time
	ops       int     // operations recorded before the sample began
	rate      float64 // the last sample's rate
	probeTime time.Duration
}

func newMeter(ph *phase, workers int) *meter {
	return &meter{ph: ph, workers: workers, heap: startHeapSampler(), start: time.Now()}
}

// begin starts a sample.
func (m *meter) begin() {
	m.heap.cut()
	m.ops = len(m.ph.ops.lat)
	m.sample = time.Now()
}

// end closes a sample that did work units, and returns its duration.
func (m *meter) end(work float64) time.Duration {
	d := time.Since(m.sample)
	m.rate = work / d.Seconds()
	m.ph.rates = append(m.ph.rates, m.rate)
	m.ph.peaks = append(m.ph.peaks, m.heap.cut())
	return d
}

// probe measures the machine's speed with units of reference work after
// a sample, records the
// sample's normalized rate and the normalized latencies of the
// operations recorded since begin, and returns the speed factor f:
// normalized rate = rate × f, normalized time = time / f.
func (m *meter) probe(units int) float64 {
	t0 := time.Now()
	r := probe(m.workers, units)
	m.probeTime += time.Since(t0)
	f := probeNominal / r
	m.ph.speeds = append(m.ph.speeds, r)
	m.ph.norm = append(m.ph.norm, m.rate*f)
	for _, l := range m.ph.ops.lat[m.ops:] {
		m.ph.normLat = append(m.ph.normLat, l/f)
	}
	return f
}

// stop ends the pass and records its wall time, without the probes, and
// its median heap peak.  A pass that never probed probes once, so every
// run states the machine's speed.
func (m *meter) stop() {
	m.ph.wall = time.Since(m.start) - m.probeTime
	m.heap.stop()
	m.ph.peak = median(m.ph.peaks)
	if len(m.ph.speeds) == 0 {
		m.ph.speeds = append(m.ph.speeds, probe(max(m.workers, 1), 4*probeUnits))
	}
}

// heapSampler tracks the high-water mark of the live heap.  It reads
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	halt chan struct{}
	done chan struct{}

	mu   sync.Mutex
	peak uint64
	cur  uint64
}

// heapMetric is the heap the last collection found live: what the
// program retains, without the garbage that depends on when the
// collector last ran.
const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{halt: make(chan struct{}), done: make(chan struct{})}
	h.read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.halt:
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	h.cur = v
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// cut returns the peak in MiB since the last cut and starts a new one.
func (h *heapSampler) cut() float64 {
	h.read()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = h.cur
	return float64(p) / (1 << 20)
}

func (h *heapSampler) stop() {
	close(h.halt)
	<-h.done
}
