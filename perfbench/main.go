// Command perfbench is the repository's end-to-end benchmark.  It drives
// the analysis pipeline through its public packages on one of four
// workloads, checks the outputs for correctness, and prints one JSON
// result line:
//
//	perfbench --workload campaign|scale|server|replay --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics listed in
// BENCHMARK.json, the figures of campaign, scale and replay normalized to
// a nominal machine speed (calib.go); with --trace 1 it runs the same seed
// untraced, then traced, then as a sequence of direct layer calls, and
// reports the per-layer metrics derived from the recorded spans.  See
// README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times an untraced run builds its workload
// from scratch; setup_s is the median.
const setupRepeats = 3

// phase is the outcome of one timed pass over a workload.
type phase struct {
	items int           // work items done: cases, worlds or requests
	wall  time.Duration // wall time of the pass
	ops   opLog         // per-operation latency and failures
	rates []float64     // throughput samples in work units per second
	peaks []float64     // live-heap peak of each sample, MiB
	peak  float64       // median of peaks
	// The machine's speed after each sample, in probe units per second,
	// and the samples' rates and operation latencies normalized by it.
	speeds  []float64
	norm    []float64
	normLat []float64 // seconds; +Inf for a failed operation
	plan    []int     // what a later pass must repeat to do the same work
	notes   []string  // human-readable lines for the log
}

// workload is one benchmark workload.
type workload interface {
	// unit names the work unit the throughput counts.
	unit() string
	// probeWorkers is the number of goroutines the calibration probe
	// runs on for this workload (the CPUs it keeps busy), or 0 when its
	// figures are reported raw; see calib.go.
	probeWorkers() int
	// setUp builds a fresh instance under dir.
	setUp(dir string, t *tracer) error
	// measure runs a timed pass: until deadline when plan is nil,
	// otherwise exactly the work plan describes (from an earlier pass of
	// the same seed).  A gate failure is returned as an error.
	measure(deadline time.Time, plan []int, t *tracer) (*phase, error)
	// direct repeats the last pass's work as a sequence of direct layer
	// calls, each in a span.
	direct(t *tracer) error
	// tearDown releases the instance's resources.
	tearDown()
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errGate marks a correctness-gate failure, as opposed to an error
// running the benchmark.
var errGate = errors.New("correctness gate failed")

func main() {
	name := flag.String("workload", "", "workload: campaign, scale, server or replay")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *seconds <= 0 || *seed == 0 || *seed >= 1<<32 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0, 0 < --seed < 2^32 and --trace 0|1")
		os.Exit(2)
	}
	work, err := workDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w, err := newWorkload(*name, *seed, work)
	if err != nil {
		os.RemoveAll(work)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *traced == 1 {
		res, err = runTraced(w, *name, *seed, dur, work)
	} else {
		res, err = runUntraced(w, dur, work)
	}
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil || !errors.Is(err, errGate) {
			os.Exit(1)
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// workDir creates this process's scratch directory inside the current
// directory and points TMPDIR at it, so every file the pipeline spools
// stays in the checkout and is removed at exit.
func workDir() (string, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, os.Setenv("TMPDIR", dir)
}

func newWorkload(name string, seed uint64, work string) (workload, error) {
	workers := runtime.NumCPU()
	switch name {
	case "campaign":
		return &campaignLoad{seed: seed, workers: workers, work: work}, nil
	case "replay":
		return &replayLoad{seed: seed, workers: workers, work: work}, nil
	case "scale":
		return newScaleLoad(seed, work), nil
	case "server":
		return &serverLoad{seed: seed, clients: workers, work: work}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want campaign, scale, server or replay)", name)
}

// instanceDir returns a fresh directory for the i-th set-up.
func instanceDir(work string, i int) (string, error) {
	dir := filepath.Join(work, fmt.Sprintf("instance-%d", i))
	return dir, os.MkdirAll(dir, 0o755)
}

// runUntraced sets the workload up setupRepeats times, measures the last
// instance for dur, and reports the end-to-end metrics.
func runUntraced(w workload, dur time.Duration, work string) (*result, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.tearDown()
		}
		dir, err := instanceDir(work, i)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.setUp(dir, nil); err != nil {
			w.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		if n := w.probeWorkers(); n > 0 {
			d *= probe(n, 2*probeUnits) / probeNominal
		}
		setups = append(setups, d)
	}
	ph, err := w.measure(time.Now().Add(dur), nil, nil)
	w.tearDown()
	if ph == nil {
		return nil, err
	}
	res := &result{Attempted: ph.ops.attempted, Failed: ph.ops.failed, Metrics: map[string]metric{}}
	logPhase(w, ph)
	fmt.Printf("setup_s: median of %d set-ups %.4g\n", len(setups), setups)
	if err != nil {
		return res, err
	}
	rates, lat := ph.rates, ph.ops.lat
	if w.probeWorkers() > 0 {
		rates, lat = ph.norm, ph.normLat
	}
	p50 := median(lat) * 1e3
	if len(lat) == 0 || math.IsInf(p50, 1) {
		return res, fmt.Errorf("%w: %d operations (%d failed) cannot support a median latency", errGate, ph.ops.attempted, ph.ops.failed)
	}
	res.Correct = true
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["work_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["op_p50_ms"] = metric{p50, "ms"}
	return res, nil
}

// logPhase prints the pass's figures with their sample counts.
func logPhase(w workload, ph *phase) {
	fmt.Printf("%s: median %.6g over %d samples (quartiles %s); %d items in %.3f s\n",
		w.unit(), median(ph.rates), len(ph.rates), quartiles(ph.rates), ph.items, ph.wall.Seconds())
	fmt.Printf("fail_ratio: %d/%d = %g\n", ph.ops.failed, ph.ops.attempted, ph.ops.failRatio())
	if p50, ok := ph.ops.median(); ok {
		fmt.Printf("op latency: %v", p50)
		if tail, ok := ph.ops.tail(); ok && tail.P > 50 {
			fmt.Printf(", %v", tail)
		} else {
			fmt.Printf(", no tail percentile has %d samples beyond it", minBeyond)
		}
		fmt.Println()
	}
	fmt.Printf("peak_heap_mib: median %.3f over %d samples (quartiles %s)\n", ph.peak, len(ph.peaks), quartiles(ph.peaks))
	fmt.Printf("machine speed: median %.5g probe units/s over %d probes (quartiles %s); nominal %d\n",
		median(ph.speeds), len(ph.speeds), quartiles(ph.speeds), probeNominal)
	if w.probeWorkers() > 0 {
		fmt.Printf("normalized to nominal speed: %s median %.6g (quartiles %s), op latency median %.4f ms\n",
			w.unit(), median(ph.norm), quartiles(ph.norm), median(ph.normLat)*1e3)
	}
	for _, n := range ph.notes {
		fmt.Println(n)
	}
}

// runTraced measures the seed untraced for half of dur, repeats exactly
// that work traced and then as direct layer calls, and reports the
// per-layer metrics.
func runTraced(w workload, name string, seed uint64, dur time.Duration, work string) (*result, error) {
	dir, err := instanceDir(work, 0)
	if err != nil {
		return nil, err
	}
	if err := w.setUp(dir, nil); err != nil {
		w.tearDown()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain, err := w.measure(time.Now().Add(dur/2), nil, nil)
	runtime.ReadMemStats(&m1)
	w.tearDown()
	if err != nil {
		return failedResult(plain), err
	}
	fmt.Println("untraced pass:")
	logPhase(w, plain)

	t := newTracer()
	if dir, err = instanceDir(work, 1); err != nil {
		return nil, err
	}
	if err := w.setUp(dir, t); err != nil {
		w.tearDown()
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	traced, err := w.measure(time.Time{}, plain.plan, t)
	if err == nil {
		err = w.direct(t)
	}
	w.tearDown()
	if err != nil {
		return failedResult(traced), err
	}
	fmt.Println("traced pass:")
	logPhase(w, traced)
	if traced.items != plain.items {
		return failedResult(traced), fmt.Errorf("traced pass did %d items, untraced %d", traced.items, plain.items)
	}
	overhead := traced.wall.Seconds()/plain.wall.Seconds() - 1
	fmt.Printf("tracing overhead: traced %.3f s vs untraced %.3f s for the same %d items (%+.2f%%); %d spans\n",
		traced.wall.Seconds(), plain.wall.Seconds(), plain.items, overhead*100, len(t.spans))

	out := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := t.write(out); err != nil {
		return nil, err
	}
	fmt.Println("spans written to", out)

	res := &result{
		Correct:   true,
		Attempted: traced.ops.attempted,
		Failed:    traced.ops.failed,
		Metrics:   layerMetrics(t),
	}
	res.Metrics["runtime.alloc_bytes"] = metric{float64(m1.TotalAlloc - m0.TotalAlloc), "B"}
	res.Metrics["runtime.gc_cycles"] = metric{float64(m1.NumGC - m0.NumGC), "count"}
	res.Metrics["runtime.peak_heap_mib"] = metric{plain.peak, "MiB"}
	res.Metrics["bench.trace_overhead_ratio"] = metric{overhead, "ratio"}
	res.Metrics["bench.items"] = metric{float64(plain.items), "count"}
	res.Metrics["bench.spans"] = metric{float64(len(t.spans)), "count"}
	res.Metrics["bench.speed_index"] = metric{median(plain.speeds), "1/s"}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// failedResult reports a pass whose gate failed: its counts, no metrics.
func failedResult(ph *phase) *result {
	res := &result{Metrics: map[string]metric{}}
	if ph != nil {
		res.Attempted, res.Failed = ph.ops.attempted, ph.ops.failed
	}
	return res
}

// spanMetrics maps a per-layer time metric to the span name whose mean
// self time it reports.
var spanMetrics = map[string]string{
	"mpi.run_s":                  "mpi.run",
	"mpi.run_spooled_s":          "mpi.run_spooled",
	"trace.stream_open_s":        "trace.stream_open",
	"analyzer.analyze_s":         "analyzer.analyze",
	"analyzer.stream_s":          "analyzer.stream",
	"profile.extract_s":          "profile.extract",
	"profile.hash_s":             "profile.hash",
	"conformance.check_s":        "conformance.check",
	"conformance.check_cached_s": "conformance.check_cached",
	"rescache.get_s":             "rescache.get",
	"rescache.put_s":             "rescache.put",
	"regress.put_s":              "regress.put",
	"regress.get_s":              "regress.get",
	"regress.compare_s":          "regress.compare",
	"similarity.ensure_index_s":  "similarity.ensure_index",
	"similarity.query_s":         "similarity.query",
	"similarity.embed_s":         "similarity.embed",
	"similarity.cluster_s":       "similarity.cluster",
}

// counterMetrics are the per-layer counters, with their units.  Every
// one is reported, as 0 when the workload never reaches the layer.
var counterMetrics = map[string]string{
	"mpi.runs":                "count",
	"mpi.events":              "count",
	"mpi.ranks":               "count",
	"trace.spool_bytes":       "B",
	"analyzer.events":         "count",
	"conformance.cases":       "count",
	"conformance.violations":  "count",
	"campaign.busy_s":         "s",
	"campaign.idle_s":         "s",
	"campaign.jobs":           "count",
	"rescache.hits":           "count",
	"rescache.misses":         "count",
	"rescache.hit_ratio":      "ratio",
	"regress.objects":         "count",
	"similarity.probed_ratio": "ratio",
	"server.overhead_s":       "s",
	"server.analyses":         "count",
	"server.dedup_hits":       "count",
	"server.rejected":         "count",
	"server.submit_p50_ms":    "ms",
	"server.submit_p90_ms":    "ms",
	"server.dedup_p50_ms":     "ms",
	"server.similar_p50_ms":   "ms",
	"server.similar_p90_ms":   "ms",
	"server.latency_p99_ms":   "ms",
}

// layerMetrics derives every per-layer metric from the tracer: mean self
// time per call for the span metrics, the recorded value for counters.
func layerMetrics(t *tracer) map[string]metric {
	self := selfTimes(t.spans)
	m := make(map[string]metric)
	for name, sp := range spanMetrics {
		v := 0.0
		if st := self[sp]; st.Calls > 0 {
			v = st.Self / float64(st.Calls)
		}
		m[name] = metric{v, "s"}
	}
	for name, unit := range counterMetrics {
		m[name] = metric{t.counters[name], unit}
	}
	return m
}
