package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0: no percentile admitted
	}{
		{0, 0}, {19, 0},
		{20, 50}, {99, 50},
		{100, 90}, {999, 90},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {1 << 20, 99.9},
	} {
		p, ok := tailPercentile(tc.n)
		if !ok {
			p = 0
		}
		if p != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, p, tc.want)
		}
		if ok && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestPercentileStatesSampleCount(t *testing.T) {
	var l opLog
	for i := 1; i <= 100; i++ {
		l.ok(float64(i) / 1e3) // 1..100 ms
	}
	s, ok := l.percentile(90)
	if !ok || s.N != 100 || s.Ms != 90 {
		t.Fatalf("p90 = %+v, %v; want 90 ms over 100 samples", s, ok)
	}
	if _, ok := l.percentile(99); ok {
		t.Fatal("p99 reported from 100 samples: only 1 lies beyond it")
	}
	tail, ok := l.tail()
	if !ok || tail.P != 90 {
		t.Fatalf("tail = %+v, want p90", tail)
	}
	if m, _ := l.median(); m.Ms != 50.5 || m.N != 100 {
		t.Fatalf("median = %+v, want 50.5 ms over 100", m)
	}
}

func TestFailedOperationsMissEveryPercentile(t *testing.T) {
	var l opLog
	for i := 0; i < 60; i++ {
		l.ok(0.001)
	}
	for i := 0; i < 40; i++ {
		l.fail()
	}
	if l.attempted != 100 || l.failed != 40 || l.failRatio() != 0.4 {
		t.Fatalf("attempted %d failed %d ratio %g", l.attempted, l.failed, l.failRatio())
	}
	if m, _ := l.median(); m.Ms != 1 {
		t.Fatalf("median = %v, want 1 ms (60%% succeeded)", m)
	}
	if p, _ := l.percentile(90); !math.IsInf(p.Ms, 1) {
		t.Fatalf("p90 = %v: a failure must count as missing the percentile", p)
	}
}

// TestRefusedRequestCountsAsFailed drives the client path against a
// server that answers 429, as atsd does when its queue is full.
func TestRefusedRequestCountsAsFailed(t *testing.T) {
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error": "analysis queue is full"}`, http.StatusTooManyRequests)
	}))
	defer refuse.Close()
	w := &serverLoad{base: refuse.URL, http: refuse.Client(), preload: []string{"x"}}

	var replies []reply
	for i := 0; i < 20; i++ {
		rp, _, err := w.do(request{class: classSimilar, preload: 0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		replies = append(replies, rp)
	}
	replies[0].failed = false // one request got through
	classes := tally([][]reply{replies})
	l := classes[classSimilar]
	if l.attempted != 20 || l.failed != 19 {
		t.Fatalf("attempted %d failed %d, want 20 and 19", l.attempted, l.failed)
	}
	if m, _ := l.median(); !math.IsInf(m.Ms, 1) {
		t.Fatalf("median = %v: refused requests must miss it", m)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "case", Parent: -1, Start: 0, End: 100},
		{Name: "mpi.run", Parent: 0, Start: 10, End: 40},
		{Name: "analyzer.analyze", Parent: 0, Start: 40, End: 70},
		{Name: "case", Parent: -1, Start: 200, End: 250},
	}
	st := selfTimes(spans)
	if c := st["case"]; c.Calls != 2 || math.Abs(c.Self-(40+50)/1e9) > 1e-18 {
		t.Fatalf("case = %+v, want 2 calls, 90 ns self", c)
	}
	if r := st["mpi.run"]; r.Calls != 1 || math.Abs(r.Self-30/1e9) > 1e-18 {
		t.Fatalf("mpi.run = %+v", r)
	}
	if got := covered([][2]int64{{5, 20}, {10, 30}, {50, 200}}, 0, 100); got != 25+50 {
		t.Fatalf("covered = %d, want 75 (overlaps merged, clipped)", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	it := tr.item(1)
	it.begin("x")
	it.end()
	it.done()
	tr.count("c", 1)

	tr = newTracer()
	it = tr.item(7)
	it.begin("outer")
	it.begin("inner")
	it.end()
	it.done() // closes outer
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].End == 0 || tr.spans[1].ID != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
}
