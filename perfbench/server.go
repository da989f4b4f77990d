package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/conformance"
	"repro/internal/regress"
	"repro/internal/server"
	"repro/internal/similarity"
)

// serverPreload is the number of synthetic profiles the store holds
// before the first request; /v1/similar's cost depends on it.
const serverPreload = 2000

// similarK is the k of every /v1/similar query.
const similarK = 5

// Request classes, cycled in this order by every client.
const (
	classSubmit  = iota // a case the server has not seen
	classDedup          // an earlier case of the same client again
	classSimilar        // GET /v1/similar/{hash}
	numClasses
)

var classNames = [numClasses]string{"submit", "dedup", "similar"}

// request is one planned request of a client.
type request struct {
	class int
	cs    conformance.Case // submit and dedup
	// target is what a similar query asks about: a preloaded profile
	// (preload >= 0) or the client's own fresh-th submission.
	preload, fresh int
}

// clientPlan draws the request sequence of one client; the same seed
// and client always give the same sequence.
type clientPlan struct {
	seed    uint64
	client  int
	rng     *rand.Rand
	k       int
	submits []conformance.Case
}

func newClientPlan(seed uint64, client int) *clientPlan {
	return &clientPlan{seed: seed, client: client, rng: rand.New(rand.NewSource(int64(seed)*1009 + int64(client)))}
}

func (p *clientPlan) next() request {
	class := p.k % numClasses
	p.k++
	switch class {
	case classSubmit:
		s := p.seed<<24 | uint64(1+p.client)<<18 | uint64(len(p.submits))
		cs := conformance.Generate(s, conformance.Config{})
		p.submits = append(p.submits, cs)
		return request{class: class, cs: cs, preload: -1, fresh: len(p.submits) - 1}
	case classDedup:
		j := p.rng.Intn(len(p.submits))
		return request{class: class, cs: p.submits[j], preload: -1, fresh: j}
	}
	if p.rng.Intn(2) == 0 {
		return request{class: class, preload: -1, fresh: p.rng.Intn(len(p.submits))}
	}
	return request{class: class, preload: p.rng.Intn(serverPreload)}
}

// reply is what a client keeps of one response.
type reply struct {
	class  int
	hash   string // submit and dedup: the report's profile_hash; similar: the query
	tie    bool   // similar: a profile tying with the query came first
	sec    float64
	failed bool
}

// serverLoad is a closed loop against atsd on a loopback listener:
// clients that each wait for every reply, cycling through fresh case
// submissions, resubmissions served by dedup, and similarity queries,
// over a store preloaded with synthetic profiles.
type serverLoad struct {
	seed    uint64
	clients int
	work    string

	preload []string // hashes of the preloaded profiles, by index
	store   *regress.Store
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	http    *http.Client

	// The last pass: each client's replies, and its submitted cases.
	replies [][]reply
	submits [][]conformance.Case
}

func (w *serverLoad) unit() string { return "req_per_s" }

// probeWorkers is 0: the closed loop is bound by file-system calls and
// hand-offs between goroutines, and its figures spread more, not less,
// when normalized by the probe.
func (w *serverLoad) probeWorkers() int { return 0 }

// build creates a store with the preloaded profiles, its similarity
// index, and a baseline for the submitted cases' experiment.
func (w *serverLoad) build(dir string) (*regress.Store, error) {
	store, err := regress.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	w.preload = w.preload[:0]
	for i := 0; i < serverPreload; i++ {
		h, err := store.Put(similarity.SyntheticProfile(w.seed, i))
		if err != nil {
			return nil, err
		}
		w.preload = append(w.preload, h)
	}
	if _, err := store.EnsureIndex(); err != nil {
		return nil, err
	}
	prof, _, err := conformance.CaseProfile(conformance.Generate(w.seed<<24|1<<23, conformance.Config{}), "")
	if err != nil {
		return nil, err
	}
	if _, err := store.SaveBaseline(prof); err != nil {
		return nil, err
	}
	return store, nil
}

func (w *serverLoad) setUp(dir string, t *tracer) error {
	store, err := w.build(dir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.store = store
	w.srv = server.New(server.Config{Store: store, Workers: w.clients})
	w.hs = &http.Server{Handler: w.srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	for c := 0; c < w.clients; c++ {
		resp, err := w.http.Get(w.base + "/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return nil
}

// do sends one request and reads the whole response; sec runs from
// sending the request to reading the last byte.
func (w *serverLoad) do(req request, fresh []string) (rp reply, body []byte, err error) {
	rp = reply{class: req.class}
	var hreq *http.Request
	if req.class == classSimilar {
		rp.hash = w.target(req, fresh)
		hreq, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/similar/%s?k=%d", w.base, rp.hash, similarK), nil)
	} else {
		var blob []byte
		if blob, err = json.Marshal(req.cs); err == nil {
			hreq, err = http.NewRequest(http.MethodPost, w.base+"/v1/cases", bytes.NewReader(blob))
		}
	}
	if err != nil {
		return rp, nil, err
	}
	t0 := time.Now()
	resp, err := w.http.Do(hreq)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rp.sec = time.Since(t0).Seconds()
	if err != nil || resp.StatusCode != http.StatusOK {
		rp.failed = true
	}
	return rp, body, nil
}

// target is the hash a similar query asks about.
func (w *serverLoad) target(req request, fresh []string) string {
	if req.preload >= 0 {
		return w.preload[req.preload]
	}
	return fresh[req.fresh]
}

// check applies the per-request gates to a successful reply.
func check(rp *reply, body []byte, fresh []string, req request) error {
	switch rp.class {
	case classSimilar:
		var info struct {
			Matches []similarity.Match `json:"matches"`
		}
		if err := json.Unmarshal(body, &info); err != nil {
			return err
		}
		tie, err := gateSelfMatch(rp.hash, info.Matches, similarK)
		rp.tie = tie
		return err
	default:
		var rep server.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			return err
		}
		rp.hash = rep.ProfileHash
		if rp.class == classDedup {
			if err := gateCached(fmt.Sprintf("case seed %d", req.cs.Seed), rep.Cached); err != nil {
				return err
			}
			return gateHash(fmt.Sprintf("case seed %d resubmitted", req.cs.Seed), fresh[req.fresh], rep.ProfileHash)
		}
	}
	return nil
}

// serverSegment is the length of one throughput sample of the closed
// loop.
const serverSegment = time.Second

func (w *serverLoad) measure(deadline time.Time, plan []int, t *tracer) (*phase, error) {
	ph := &phase{}
	w.replies = make([][]reply, w.clients)
	w.submits = make([][]conformance.Case, w.clients)
	plans := make([]*clientPlan, w.clients)
	fresh := make([][]string, w.clients)
	for c := range plans {
		plans[c] = newClientPlan(w.seed, c)
	}
	more := func(c int) bool {
		if plan != nil {
			return len(w.replies[c]) < plan[c]
		}
		return len(w.replies[c]) == 0 || time.Now().Before(deadline)
	}
	// The loop runs in segments, each one throughput sample.
	m := newMeter(ph, w.clients)
	for busy := true; busy; {
		m.begin()
		end := time.Now().Add(serverSegment)
		errs := make([]error, w.clients)
		served := make([]int, w.clients)
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for more(c) && (served[c] == 0 || time.Now().Before(end)) {
					k := len(w.replies[c])
					req := plans[c].next()
					it := t.item(int64(c)<<32 | int64(k))
					it.begin("server." + classNames[req.class])
					rp, body, err := w.do(req, fresh[c])
					it.done()
					if err == nil && !rp.failed {
						err = gated(check(&rp, body, fresh[c], req))
					}
					if err != nil {
						errs[c] = err
						return
					}
					if req.class == classSubmit {
						fresh[c] = append(fresh[c], rp.hash)
					}
					w.replies[c] = append(w.replies[c], rp)
					served[c]++
				}
			}(c)
		}
		wg.Wait()
		n := 0
		for _, k := range served {
			n += k
		}
		if n > 0 {
			m.end(float64(n))
		}
		if err := errors.Join(errs...); err != nil {
			m.stop()
			return ph, err
		}
		busy = false
		for c := range plans {
			busy = busy || more(c)
		}
	}
	m.stop()
	for c := range plans {
		w.submits[c] = plans[c].submits
	}

	for c := range w.replies {
		ph.plan = append(ph.plan, len(w.replies[c]))
	}
	classes := tally(w.replies)
	for i := range classes {
		ph.ops.merge(&classes[i])
	}
	ph.items = ph.ops.attempted
	w.report(ph, classes, t)
	if ph.ops.failed > 0 {
		return ph, nil
	}
	if err := w.verifySubmits(); err != nil {
		return ph, gated(err)
	}
	ties, queries := 0, 0
	for _, rps := range w.replies {
		for _, rp := range rps {
			if rp.class == classSimilar {
				queries++
				if rp.tie {
					ties++
				}
			}
		}
	}
	ph.notes = append(ph.notes, fmt.Sprintf("similar: %d of %d queries had a different profile at similarity 1 ranked first", ties, queries))
	return ph, nil
}

// tally accounts for every reply by request class: a non-200 response
// or a transport error is a failed operation.
func tally(replies [][]reply) [numClasses]opLog {
	var classes [numClasses]opLog
	for _, rps := range replies {
		for _, rp := range rps {
			if rp.failed {
				classes[rp.class].fail()
			} else {
				classes[rp.class].ok(rp.sec)
			}
		}
	}
	return classes
}

// report records the per-class latency percentiles, with their sample
// counts, in the log and as counters.
func (w *serverLoad) report(ph *phase, classes [numClasses]opLog, t *tracer) {
	stat := func(metric string, l *opLog, p float64) {
		s, ok := l.percentile(p)
		if p == 50 {
			s, ok = l.median()
		}
		if !ok {
			ph.notes = append(ph.notes, fmt.Sprintf("%s: only %d samples, none reported", metric, s.N))
			return
		}
		ph.notes = append(ph.notes, fmt.Sprintf("%s: %v", metric, s))
		t.count("server."+metric, s.Ms)
	}
	stat("submit_p50_ms", &classes[classSubmit], 50)
	stat("submit_p90_ms", &classes[classSubmit], 90)
	stat("dedup_p50_ms", &classes[classDedup], 50)
	stat("similar_p50_ms", &classes[classSimilar], 50)
	stat("similar_p90_ms", &classes[classSimilar], 90)
	stat("latency_p99_ms", &ph.ops, 99)
	t.count("server.rejected", float64(ph.ops.failed))
	t.count("server.dedup_hits", float64(classes[classDedup].attempted-classes[classDedup].failed))
	if t != nil {
		t.count("server.analyses", float64(w.srv.AnalysesRun()))
		if objs, err := w.store.Objects(); err == nil {
			t.count("regress.objects", float64(len(objs)))
		}
	}
}

// verifySubmits requires every fresh submission's profile hash to equal
// the offline conformance.CaseProfile hash of the same case, except for
// cases whose hash legitimately varies between runs.
func (w *serverLoad) verifySubmits() error {
	type job struct {
		cs   conformance.Case
		hash string
	}
	var jobs []job
	for c, rps := range w.replies {
		j := 0
		for _, rp := range rps {
			if rp.class == classSubmit {
				if cs := w.submits[c][j]; !nondeterministic(cs) {
					jobs = append(jobs, job{cs, rp.hash})
				}
				j++
			}
		}
	}
	_, err := campaign.Run(len(jobs), campaign.Options{Workers: w.clients}, func(i int) (struct{}, error) {
		prof, _, err := conformance.CaseProfile(jobs[i].cs, "")
		if err != nil {
			return struct{}{}, err
		}
		hash, err := prof.Hash()
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, gateHash(fmt.Sprintf("case seed %d submitted", jobs[i].cs.Seed), hash, jobs[i].hash)
	})
	return err
}

// direct replays the last pass's requests as the public calls atsd makes
// for them, against a second store built like the first: the case
// pipeline, Put, Baseline, Compare and ClusterRanks for a submission;
// Get, EnsureIndex, Embed, Query and EnsureIndex again for a similar
// query; nothing for a dedup hit.  server.overhead_s is the mean request
// latency of the traced pass minus the mean time of these calls.
func (w *serverLoad) direct(t *tracer) error {
	dir, err := instanceDir(w.work, 2)
	if err != nil {
		return err
	}
	store, err := w.build(dir)
	if err != nil {
		return err
	}
	work := make([]float64, w.clients)
	var probed, indexed int
	var mu sync.Mutex
	errs := make([]error, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := newClientPlan(w.seed, c)
			var fresh []string
			for k, rp := range w.replies[c] {
				req := p.next()
				it := t.item(int64(c)<<32 | int64(k))
				t0 := time.Now()
				it.begin("direct." + classNames[req.class])
				var err error
				switch req.class {
				case classSubmit:
					var hash string
					hash, err = directSubmit(it, t, store, req.cs)
					if err == nil && !nondeterministic(req.cs) {
						err = gated(gateHash(fmt.Sprintf("case seed %d direct", req.cs.Seed), rp.hash, hash))
					}
					fresh = append(fresh, hash)
				case classSimilar:
					var pr, ix int
					pr, ix, err = directSimilar(it, store, w.target(req, fresh))
					mu.Lock()
					probed, indexed = probed+pr, indexed+ix
					mu.Unlock()
				}
				it.done()
				work[c] += time.Since(t0).Seconds()
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var lat, total float64
	n := 0
	for c, rps := range w.replies {
		for _, rp := range rps {
			lat += rp.sec
			n++
		}
		total += work[c]
	}
	if n > 0 {
		t.count("server.overhead_s", (lat-total)/float64(n))
	}
	if indexed > 0 {
		t.count("similarity.probed_ratio", float64(probed)/float64(indexed))
	}
	return nil
}

// directSubmit runs what atsd runs for a fresh case submission.
func directSubmit(it *itemTrace, t *tracer, store *regress.Store, cs conformance.Case) (string, error) {
	prof, hash, err := materialized(it, t, conformance.DefaultExperiment, cs.Procs, cs.Threshold, caseRunInfo(cs), caseBody(cs))
	if err != nil {
		return "", err
	}
	it.begin("regress.put")
	_, err = store.Put(prof)
	it.end()
	if err != nil {
		return "", err
	}
	it.begin("regress.get")
	base, _, err := store.Baseline(prof.Experiment)
	it.end()
	if err != nil {
		return "", err
	}
	it.begin("regress.compare")
	regress.Compare(base, prof, regress.Tolerances{})
	it.end()
	it.begin("similarity.cluster")
	similarity.ClusterRanks(prof, similarity.RankOptions{})
	it.end()
	return hash, nil
}

// directSimilar runs what atsd runs for GET /v1/similar/{hash} and
// returns the candidates scored and the index size.
func directSimilar(it *itemTrace, store *regress.Store, hash string) (probed, indexed int, err error) {
	it.begin("regress.get")
	p, err := store.Get(hash)
	it.end()
	if err != nil {
		return 0, 0, err
	}
	it.begin("similarity.ensure_index")
	idx, err := store.EnsureIndex()
	it.end()
	if err != nil {
		return 0, 0, err
	}
	it.begin("similarity.embed")
	vec := similarity.Embed(p)
	it.end()
	it.begin("similarity.query")
	matches, probed, err := idx.Query(vec, similarK)
	it.end()
	if err != nil {
		return 0, 0, err
	}
	if _, err := gateSelfMatch(hash, matches, similarK); err != nil {
		return 0, 0, gated(err)
	}
	it.begin("similarity.ensure_index")
	idx, err = store.EnsureIndex()
	it.end()
	if err != nil {
		return 0, 0, err
	}
	return probed, idx.Len(), nil
}

func (w *serverLoad) tearDown() {
	if w.hs != nil {
		w.hs.Close()
		<-w.served
		w.srv.Close()
		w.http.CloseIdleConnections()
	}
	w.hs, w.srv, w.store, w.http = nil, nil, nil, nil
}
