package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/analyzer"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/profile"
	"repro/internal/trace"
)

// caseBody is the per-rank program conformance.Check runs for a case:
// every injected property in order, each followed by the harness's
// separator barrier.  Check does not export it, so the decomposed
// pipelines below rebuild it from public calls; the traced run's hash
// gate proves the rebuild runs the same program.
func caseBody(cs conformance.Case) func(c *mpi.Comm) {
	team := omp.Options{Threads: cs.Threads}
	return func(c *mpi.Comm) {
		c.Begin("conformance_case")
		defer c.End()
		for _, cp := range cs.Props {
			spec, _ := core.Get(cp.Name)
			spec.Run(core.Env{Comm: c, Ctx: c.Ctx(), OMP: team}, cp.Args())
			c.Begin("conformance_separator")
			c.Barrier()
			c.End()
		}
	}
}

// caseRunInfo is the run metadata conformance records in a case profile.
func caseRunInfo(cs conformance.Case) profile.RunInfo {
	return profile.RunInfo{
		Procs: cs.Procs, Threads: cs.Threads,
		Params: map[string]string{"seed": fmt.Sprintf("%d", cs.Seed)},
	}
}

// materialized runs a program in memory, analyzes the merged trace and
// returns the canonical profile and its hash, one span per layer call.
func materialized(it *itemTrace, t *tracer, experiment string, procs int, threshold float64,
	run profile.RunInfo, body func(c *mpi.Comm)) (*profile.Profile, string, error) {
	it.begin("mpi.run")
	tr, err := mpi.Run(mpi.Options{Procs: procs}, body)
	it.end()
	if err != nil {
		return nil, "", err
	}
	t.count("mpi.runs", 1)
	t.count("mpi.ranks", float64(procs))
	t.count("mpi.events", float64(len(tr.Events)))
	it.begin("analyzer.analyze")
	rep := analyzer.Analyze(tr, analyzer.Options{Threshold: threshold})
	it.end()
	t.count("analyzer.events", float64(len(tr.Events)))
	it.begin("profile.extract")
	prof, err := profile.FromRun(experiment, tr, rep, run)
	it.end()
	if err != nil {
		return nil, "", err
	}
	it.begin("profile.hash")
	hash, err := prof.Hash()
	it.end()
	return prof, hash, err
}

// spoolSeq names spool files uniquely within one benchmark process.
var spoolSeq atomic.Int64

// streamed runs a program with its events spilled to a chunk spool,
// analyzes the spool incrementally without materializing it, and returns
// the event count and profile hash, one span per layer call.
func streamed(it *itemTrace, t *tracer, dir, experiment string, procs int, threshold float64,
	run profile.RunInfo, body func(c *mpi.Comm)) (int, string, error) {
	spool := filepath.Join(dir, fmt.Sprintf("spool-%d.atsc", spoolSeq.Add(1)))
	defer os.Remove(spool)

	it.begin("mpi.run_spooled")
	w, err := trace.NewChunkWriter(spool, trace.DefaultSpillEvents)
	if err == nil {
		if _, err = mpi.Run(mpi.Options{Procs: procs, Sink: w}, body); err != nil {
			w.Abort()
		} else {
			err = w.Close()
		}
	}
	it.end()
	if err != nil {
		return 0, "", err
	}
	t.count("mpi.runs", 1)
	t.count("mpi.ranks", float64(procs))
	if t != nil {
		if fi, err := os.Stat(spool); err == nil {
			t.count("trace.spool_bytes", float64(fi.Size()))
		}
	}

	it.begin("trace.stream_open")
	r, err := trace.OpenChunkFile(spool)
	var st *trace.Stream
	if err == nil {
		if st, err = trace.NewStream(r); err != nil {
			r.Close()
		}
	}
	it.end()
	if err != nil {
		return 0, "", err
	}
	defer st.Close()

	it.begin("analyzer.stream")
	rep, err := analyzer.AnalyzeStream(st, analyzer.Options{Threshold: threshold})
	it.end()
	if err != nil {
		return 0, "", err
	}
	t.count("mpi.events", float64(st.Events()))
	t.count("analyzer.events", float64(st.Events()))
	it.begin("profile.extract")
	prof, err := profile.FromAnalysis(experiment, profile.TraceInfoOfStream(st), rep, run)
	it.end()
	if err != nil {
		return 0, "", err
	}
	it.begin("profile.hash")
	hash, err := prof.Hash()
	it.end()
	return st.Events(), hash, err
}
