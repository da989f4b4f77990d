package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/mpi"
	"repro/internal/profile"
)

// The scale world is the scalebig composite of the experiments package
// (skewed compute segments, a ring Sendrecv, barrier resyncs) at a few
// thousand ranks; the seed draws each rank's compute skew and the ring's
// stride, which leaves the event count unchanged.
const (
	scaleProcs  = 4096
	scaleRounds = 6
	scaleInner  = 4
)

// scaleLoad is one large world through the event engine, the chunk
// spool and the streaming analyzer, repeated.
type scaleLoad struct {
	work      string
	skew      []float64
	stride    int
	refHash   string
	refEvents int
}

func newScaleLoad(seed uint64, work string) *scaleLoad {
	rng := rand.New(rand.NewSource(int64(seed)))
	w := &scaleLoad{work: work, skew: make([]float64, scaleProcs), stride: 1 + rng.Intn(8)}
	for r := range w.skew {
		w.skew[r] = 0.0002 * (1 + rng.Float64())
	}
	return w
}

func (w *scaleLoad) unit() string { return "events_per_s" }

// probeWorkers is 1: one world keeps about one CPU busy.
func (w *scaleLoad) probeWorkers() int { return 1 }

func (w *scaleLoad) body(c *mpi.Comm) {
	next := (c.Rank() + w.stride) % c.Size()
	prev := (c.Rank() - w.stride + c.Size()) % c.Size()
	buf := mpi.AllocBuf(mpi.TypeDouble, 4)
	defer mpi.FreeBuf(buf)
	c.Begin("scale_phase")
	for r := 0; r < scaleRounds; r++ {
		for k := 0; k < scaleInner; k++ {
			c.Begin("compute")
			c.Work(w.skew[c.Rank()])
			c.End()
		}
		c.Sendrecv(buf, next, 1, buf, prev, 1)
		c.Barrier()
	}
	c.End()
}

func (w *scaleLoad) runInfo() profile.RunInfo { return profile.RunInfo{Procs: scaleProcs, Threads: 1} }

// setUp computes the reference hash through the materialized pipeline.
func (w *scaleLoad) setUp(dir string, t *tracer) error {
	it := t.item(-1)
	defer it.done()
	it.begin("reference")
	defer it.end()
	_, hash, err := materialized(it, t, "scale", scaleProcs, 0, w.runInfo(), w.body)
	w.refHash = hash
	return err
}

func (w *scaleLoad) measure(deadline time.Time, plan []int, t *tracer) (*phase, error) {
	ph := &phase{}
	worlds := -1
	if plan != nil {
		worlds = plan[0]
	}
	m := newMeter(ph, w.probeWorkers())
	for n := 0; worlds < 0 && (n == 0 || time.Now().Before(deadline)) || n < worlds; n++ {
		// Start each world from a collected heap, so one world's garbage
		// does not count towards the next one's peak.
		runtime.GC()
		runtime.GC()
		m.begin()
		it := t.item(int64(n))
		it.begin("world")
		events, hash, err := streamed(it, t, w.work, "scale", scaleProcs, 0, w.runInfo(), w.body)
		it.end()
		it.done()
		if err != nil {
			ph.ops.fail()
			m.stop()
			return ph, err
		}
		d := m.end(float64(events))
		ph.ops.ok(d.Seconds())
		m.probe(6 * probeUnits)
		ph.items++
		if err := gateHash(fmt.Sprintf("scale world %d streamed", n), w.refHash, hash); err != nil {
			m.stop()
			return ph, gated(err)
		}
		if w.refEvents == 0 {
			w.refEvents = events
		} else if events != w.refEvents {
			m.stop()
			return ph, gated(fmt.Errorf("scale world %d: %d events, earlier worlds %d", n, events, w.refEvents))
		}
	}
	m.stop()
	ph.plan = []int{ph.items}
	ph.notes = append(ph.notes, fmt.Sprintf("%d ranks, %d events per world, stride %d; streamed hash %.12s equals the materialized pipeline's",
		scaleProcs, w.refEvents, w.stride, w.refHash))
	return ph, nil
}

// direct adds nothing: the scale pass already is the sequence of layer
// calls, and its set-up the materialized one.
func (w *scaleLoad) direct(t *tracer) error { return nil }

func (w *scaleLoad) tearDown() { w.refHash = "" }
