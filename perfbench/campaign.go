package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/conformance"
	"repro/internal/rescache"
)

// caseSeed derives the conformance seed of the i-th case of a run, so
// distinct benchmark seeds draw disjoint cases.
func caseSeed(seed uint64, i int) uint64 { return seed<<24 | uint64(i) }

// gated marks err as a correctness-gate failure.
func gated(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errGate, err)
}

// checked is one case's verdict plus how long its oracle call took.
type checked struct {
	v   verdict
	sec float64
	err error
}

// sweep checks cases [from, from+n) on a campaign pool of workers,
// through check, and records one span per call when traced.  It returns
// the verdicts in case order and the pool's summed busy time.
func sweep(seed uint64, from, n, workers int, t *tracer, span string,
	check func(conformance.Case, conformance.CheckOptions) (conformance.Outcome, error)) ([]checked, float64, error) {
	rs, err := campaign.Run(n, campaign.Options{Workers: workers}, func(j int) (checked, error) {
		t0 := time.Now()
		cs := conformance.Generate(caseSeed(seed, from+j), conformance.Config{})
		it := t.item(int64(from + j))
		it.begin("case")
		it.begin(span)
		out, err := check(cs, conformance.CheckOptions{})
		it.end()
		it.end()
		it.done()
		return checked{v: verdictOf(out), sec: time.Since(t0).Seconds(), err: err}, nil
	})
	var busy float64
	for _, r := range rs {
		busy += r.sec
	}
	return rs, busy, err
}

// account folds a sweep's results into a phase and returns the verdicts.
func account(ph *phase, rs []checked) []verdict {
	vs := make([]verdict, len(rs))
	for i, r := range rs {
		vs[i] = r.v
		if r.err != nil || len(r.v.Violations) > 0 {
			ph.ops.fail()
		} else {
			ph.ops.ok(r.sec)
		}
	}
	return vs
}

// firstError returns the first ill-formed-case error of a sweep.
func firstError(rs []checked) error {
	for _, r := range rs {
		if r.err != nil {
			return fmt.Errorf("case seed %d: %w", r.v.Seed, r.err)
		}
	}
	return nil
}

// campaignBatch is the number of cases per campaign.Run call: large
// enough that the pool's drain at the end of a batch is a small share of
// it, small enough for many throughput samples per run.
const campaignBatch = 128

// recheckCases is the prefix a campaign run checks a second time, on one
// worker, to prove its verdicts and hashes repeat.
const recheckCases = 64

// campaignLoad is the cold conformance sweep: seeded cases through
// conformance.Check on a campaign pool, with no result cache.
type campaignLoad struct {
	seed    uint64
	workers int
	work    string
	last    []verdict // verdicts of the last measured pass
}

func (w *campaignLoad) unit() string      { return "cases_per_s" }
func (w *campaignLoad) probeWorkers() int { return w.workers }

func (w *campaignLoad) setUp(dir string, t *tracer) error {
	conformance.SetResultCache(nil)
	// Warm the pool and the allocator on cases the run never measures.
	rs, _, err := sweep(w.seed, 1<<23, recheckCases, w.workers, nil, "conformance.check", conformance.Check)
	if err == nil {
		err = firstError(rs)
	}
	return err
}

func (w *campaignLoad) measure(deadline time.Time, plan []int, t *tracer) (*phase, error) {
	ph := &phase{}
	limit := -1
	if plan != nil {
		limit = plan[0]
	}
	var busy float64
	m := newMeter(ph, w.workers)
	for limit < 0 && (ph.items == 0 || time.Now().Before(deadline)) || ph.items < limit {
		n := campaignBatch
		if limit >= 0 && limit-ph.items < n {
			n = limit - ph.items
		}
		m.begin()
		rs, b, err := sweep(w.seed, ph.items, n, w.workers, t, "conformance.check", conformance.Check)
		if err != nil {
			m.stop()
			return ph, err
		}
		m.end(float64(n))
		busy += b
		w.last = append(w.last, account(ph, rs)...)
		m.probe(4 * probeUnits)
		ph.items += n
		if err := firstError(rs); err != nil {
			m.stop()
			return ph, gated(err)
		}
	}
	m.stop()
	ph.plan = []int{ph.items}

	t.count("campaign.jobs", float64(ph.items))
	t.count("campaign.busy_s", busy)
	t.count("campaign.idle_s", float64(w.workers)*ph.wall.Seconds()-busy)
	t.count("conformance.cases", float64(ph.items))
	for _, v := range w.last {
		t.count("conformance.violations", float64(len(v.Violations)))
	}

	if err := gateClean(w.last); err != nil {
		return ph, gated(err)
	}
	n := min(recheckCases, len(w.last))
	again, _, err := sweep(w.seed, 0, n, 1, nil, "conformance.check", conformance.Check)
	if err != nil {
		return ph, err
	}
	if err := gateDigest("campaign re-check", w.last[:n], account(&phase{}, again), false); err != nil {
		return ph, gated(err)
	}
	ph.notes = append(ph.notes, fmt.Sprintf("verdict digest of the first %d cases: %s (re-checked on one worker)",
		n, digest(w.last[:n], false)))
	return ph, nil
}

// direct re-runs the last pass's cases as the layer calls Check makes:
// the in-memory run, analysis and profile, then the determinism axis's
// spooled re-run through the streaming analyzer.  Both hashes must equal
// Check's.
func (w *campaignLoad) direct(t *tracer) error {
	_, err := campaign.Run(len(w.last), campaign.Options{Workers: w.workers}, func(i int) (struct{}, error) {
		cs := conformance.Generate(caseSeed(w.seed, i), conformance.Config{})
		it := t.item(int64(i))
		it.begin("case")
		defer it.done()
		_, mem, err := materialized(it, t, conformance.DefaultExperiment, cs.Procs, cs.Threshold, caseRunInfo(cs), caseBody(cs))
		if err != nil {
			return struct{}{}, err
		}
		_, str, err := streamed(it, t, w.work, conformance.DefaultExperiment, cs.Procs, cs.Threshold, caseRunInfo(cs), caseBody(cs))
		if err != nil {
			return struct{}{}, err
		}
		if v := w.last[i]; !v.Nondet {
			if err := gateHash(fmt.Sprintf("case seed %d in-memory", cs.Seed), v.Hash, mem); err != nil {
				return struct{}{}, gated(err)
			}
			if err := gateHash(fmt.Sprintf("case seed %d streamed", cs.Seed), v.Hash, str); err != nil {
				return struct{}{}, gated(err)
			}
		}
		return struct{}{}, nil
	})
	return err
}

func (w *campaignLoad) tearDown() { w.last = nil }

// replayCases is the size of the sweep the replay workload caches and
// then replays; one pass is one throughput sample.
const replayCases = 500

// replayLoad is the warm result-cache sweep: set-up fills a fresh
// rescache with one cold sweep, the timed phase replays it through
// conformance.CheckCached.
type replayLoad struct {
	seed    uint64
	workers int
	work    string
	store   *rescache.Store
	cold    []verdict
}

func (w *replayLoad) unit() string      { return "cases_per_s" }
func (w *replayLoad) probeWorkers() int { return w.workers }

func (w *replayLoad) setUp(dir string, t *tracer) error {
	store, err := rescache.Open(filepath.Join(dir, "rescache"))
	if err != nil {
		return err
	}
	w.store = store
	conformance.SetResultCache(store)
	rs, _, err := sweep(w.seed, 0, replayCases, w.workers, nil, "conformance.check_cached", conformance.CheckCached)
	if err == nil {
		err = firstError(rs)
	}
	if err != nil {
		return err
	}
	w.cold = account(&phase{}, rs)
	return gated(gateClean(w.cold))
}

func (w *replayLoad) measure(deadline time.Time, plan []int, t *tracer) (*phase, error) {
	ph := &phase{}
	passes := -1
	if plan != nil {
		passes = plan[0]
	}
	before := w.store.Stats()
	var busy float64
	m := newMeter(ph, w.workers)
	n := 0
	for passes < 0 && (n == 0 || time.Now().Before(deadline)) || n < passes {
		m.begin()
		rs, b, err := sweep(w.seed, 0, replayCases, w.workers, t, "conformance.check_cached", conformance.CheckCached)
		if err != nil {
			m.stop()
			return ph, err
		}
		m.end(replayCases)
		busy += b
		n++
		ph.items += replayCases
		warm := account(ph, rs)
		m.probe(probeUnits)
		if err := firstError(rs); err == nil {
			err = gateDigest("replay", w.cold, warm, true)
		}
		if err != nil {
			m.stop()
			return ph, gated(err)
		}
	}
	m.stop()
	ph.plan = []int{n}
	after := w.store.Stats()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses

	t.count("campaign.jobs", float64(ph.items))
	t.count("campaign.busy_s", busy)
	t.count("campaign.idle_s", float64(w.workers)*ph.wall.Seconds()-busy)
	t.count("conformance.cases", float64(ph.items))
	t.count("rescache.hits", float64(hits))
	t.count("rescache.misses", float64(misses))
	if hits+misses > 0 {
		t.count("rescache.hit_ratio", float64(hits)/float64(hits+misses))
	}
	ph.notes = append(ph.notes, fmt.Sprintf("%d passes over %d cached cases, each equal to the cold sweep: %d hits, %d misses; verdict digest %s",
		n, replayCases, hits, misses, digest(w.cold, false)))
	return ph, gated(gateHitRatio(hits, misses))
}

// direct times the result cache's own calls: a Get of every entry the
// cold sweep stored, and a Put of each into an empty store.
func (w *replayLoad) direct(t *tracer) error {
	probe, err := rescache.Open(filepath.Join(w.store.Dir(), "..", "probe"))
	if err != nil {
		return err
	}
	var keys []string
	err = filepath.WalkDir(filepath.Join(w.store.Dir(), "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".json") {
			keys = append(keys, strings.TrimSuffix(d.Name(), ".json"))
		}
		return err
	})
	if err != nil {
		return err
	}
	for i, key := range keys {
		it := t.item(int64(i))
		it.begin("rescache.get")
		blob, ok := w.store.Get(key)
		it.end()
		if !ok {
			it.done()
			return gated(fmt.Errorf("replay: stored entry %.12s missing", key))
		}
		it.begin("rescache.put")
		err := probe.Put(key, blob)
		it.end()
		it.done()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *replayLoad) tearDown() {
	conformance.SetResultCache(nil)
	w.store, w.cold = nil, nil
}
