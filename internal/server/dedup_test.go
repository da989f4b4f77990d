package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/conformance"
	"repro/internal/regress"
	"repro/internal/rescache"
)

// openStore opens a fresh store that several servers can share.
func openStore(t *testing.T) *regress.Store {
	t.Helper()
	store, err := regress.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestRestartServesStoredReport: a server started on the store of an
// earlier one answers a resubmission from the report file, without
// re-running the analysis.
func TestRestartServesStoredReport(t *testing.T) {
	store := openStore(t)
	_, blob := corpusCase(t, "seed001.json")
	_, ts1 := newTestServer(t, Config{Store: store})
	rep1, resp1 := postReport(t, ts1.URL+"/v1/cases", "application/json", blob)
	if resp1.StatusCode != http.StatusOK || rep1.Cached {
		t.Fatalf("first submission: status %s cached %v", resp1.Status, rep1.Cached)
	}

	s2, ts2 := newTestServer(t, Config{Store: store})
	rep2, resp2 := postReport(t, ts2.URL+"/v1/cases", "application/json", blob)
	if resp2.StatusCode != http.StatusOK || !rep2.Cached {
		t.Fatalf("resubmission after restart: status %s cached %v, want 200 cached", resp2.Status, rep2.Cached)
	}
	if rep2.ID != rep1.ID || rep2.ProfileHash != rep1.ProfileHash {
		t.Errorf("stored report diverges: %+v vs %+v", rep2, rep1)
	}
	if got := s2.AnalysesRun(); got != 0 {
		t.Errorf("restarted server ran %d analyses, want 0", got)
	}
}

// TestBadStoredReportRecomputed: a report entry that is truncated,
// stamped by another engine version or profile schema, names another ID
// or is not done is a miss — the submission re-runs and a valid report
// overwrites the entry.
func TestBadStoredReportRecomputed(t *testing.T) {
	_, blob := corpusCase(t, "seed002.json")
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, stored *rescache.Store, path string, rep map[string]any)
	}{
		{"truncated", func(t *testing.T, _ *rescache.Store, path string, _ map[string]any) {
			entry, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, entry[:len(entry)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"other env", func(t *testing.T, _ *rescache.Store, path string, _ map[string]any) {
			var e rescache.Entry
			entry, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(entry, &e); err != nil {
				t.Fatal(err)
			}
			e.Env["profile/schema"]--
			if err := os.WriteFile(path, marshal(t, e), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"other id", func(t *testing.T, stored *rescache.Store, _ string, rep map[string]any) {
			id := rep["id"].(string)
			rep["id"] = reportID("case", "other", "", nil)
			if err := stored.Put(id, marshal(t, rep)); err != nil {
				t.Fatal(err)
			}
		}},
		{"not done", func(t *testing.T, stored *rescache.Store, _ string, rep map[string]any) {
			rep["status"] = StatusRunning
			if err := stored.Put(rep["id"].(string), marshal(t, rep)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := openStore(t)
			stored := openReportCache(t, store)
			_, ts1 := newTestServer(t, Config{Store: store})
			rep1, _ := postReport(t, ts1.URL+"/v1/cases", "application/json", blob)
			good, ok := stored.Get(rep1.ID)
			if !ok {
				t.Fatal("completed report not in the store")
			}
			var fields map[string]any
			if err := json.Unmarshal(good, &fields); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(stored.Dir(), "objects", rep1.ID[:2], rep1.ID+".json")
			tc.spoil(t, stored, path, fields)

			s2, ts2 := newTestServer(t, Config{Store: store})
			rep2, resp2 := postReport(t, ts2.URL+"/v1/cases", "application/json", blob)
			if resp2.StatusCode != http.StatusOK || rep2.Cached {
				t.Fatalf("resubmission over a bad report entry: status %s cached %v, want a fresh 200", resp2.Status, rep2.Cached)
			}
			if got := s2.AnalysesRun(); got != 1 {
				t.Errorf("AnalysesRun = %d, want 1", got)
			}
			fixed, ok := stored.Get(rep1.ID)
			if !ok {
				t.Fatal("recomputed report not in the store")
			}
			if string(fixed) != string(good) {
				t.Errorf("report entry not overwritten with the recomputed report:\n%s\nwant\n%s", fixed, good)
			}
		})
	}
}

// openReportCache opens the report cache a server on store writes to.
func openReportCache(t *testing.T, store *regress.Store) *rescache.Store {
	t.Helper()
	stored, err := openReports(store)
	if err != nil {
		t.Fatal(err)
	}
	return stored
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestErrorReportNotStored: a failed analysis stays in memory only, so
// a server on the same store tries it again.
func TestErrorReportNotStored(t *testing.T) {
	store := openStore(t)
	garbage := []byte("NOPE not a trace")
	_, ts1 := newTestServer(t, Config{Store: store})
	rep, resp := postReport(t, ts1.URL+"/v1/traces?experiment=x", "application/octet-stream", garbage)
	if resp.StatusCode != http.StatusUnprocessableEntity || rep.Status != StatusError || rep.ID == "" {
		t.Fatalf("garbage upload: status %s, report %+v; want a 422 error report", resp.Status, rep)
	}
	stored := openReportCache(t, store)
	if _, ok := stored.Get(rep.ID); ok {
		t.Fatal("error report reached the store")
	}
	if n, err := stored.Len(); err != nil || n != 0 {
		t.Errorf("report cache holds %d entries (err %v) after an error report", n, err)
	}

	s2, ts2 := newTestServer(t, Config{Store: store})
	if rep2, _ := postReport(t, ts2.URL+"/v1/traces?experiment=x", "application/octet-stream", garbage); rep2.Cached {
		t.Error("error report served from the cache after a restart")
	}
	if got := s2.AnalysesRun(); got != 1 {
		t.Errorf("AnalysesRun = %d, want 1", got)
	}
}

// TestCachedHitRejudged: a stored report answers a resubmission against
// the baseline and tolerances in force now, not those of its analysis.
// The baseline moves, and the server restarts with other tolerances,
// between two submissions of one case; the resubmission is still served
// from the store, with the verdict a fresh analysis would give.
func TestCachedHitRejudged(t *testing.T) {
	store := openStore(t)
	_, blobA := corpusCase(t, "seed001.json")
	_, blobB := corpusCase(t, "seed002.json")
	_, ts1 := newTestServer(t, Config{Store: store})
	repA, _ := postReport(t, ts1.URL+"/v1/cases", "application/json", blobA)
	if repA.Status != StatusDone || repA.BaselineHash != "" || repA.Diff != nil {
		t.Fatalf("first submission without a baseline: %+v", repA)
	}
	repB, _ := postReport(t, ts1.URL+"/v1/cases?save=1", "application/json", blobB)
	if !repB.Saved {
		t.Fatalf("save=1 did not promote: %+v", repB)
	}
	// saved belongs to the response that promoted, not to the report.
	if again, _ := postReport(t, ts1.URL+"/v1/cases", "application/json", blobB); !again.Cached || again.Saved {
		t.Errorf("resubmission without save=1: cached %v saved %v, want cached and not saved", again.Cached, again.Saved)
	}

	tol := regress.Tolerances{RelWait: 0.5}
	s2, ts2 := newTestServer(t, Config{Store: store, Tol: tol})
	repA2, resp := postReport(t, ts2.URL+"/v1/cases", "application/json", blobA)
	if resp.StatusCode != http.StatusOK || !repA2.Cached {
		t.Fatalf("resubmission: status %s cached %v, want 200 cached", resp.Status, repA2.Cached)
	}
	if got := s2.AnalysesRun(); got != 0 {
		t.Errorf("AnalysesRun = %d, want 0", got)
	}
	base, err := store.Get(repB.ProfileHash)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := store.Get(repA.ProfileHash)
	if err != nil {
		t.Fatal(err)
	}
	want := regress.Compare(base, cur, tol)
	if repA2.BaselineHash != repB.ProfileHash || repA2.Diff == nil || repA2.Drift != want.Regressed() ||
		!bytes.Equal(marshal(t, repA2.Diff), marshal(t, want)) {
		t.Fatalf("resubmission verdict: baseline %.12s drift %v diff %+v; want baseline %.12s drift %v diff %+v",
			repA2.BaselineHash, repA2.Drift, repA2.Diff, repB.ProfileHash, want.Regressed(), want)
	}
	// The moved verdict is written back, so the report record agrees.
	var got Report
	if err := json.Unmarshal(getReport(t, ts2.URL, repA.ID), &got); err != nil {
		t.Fatal(err)
	}
	if got.BaselineHash != repB.ProfileHash || got.Diff == nil || got.Diff.Tol != tol.WithDefaults() {
		t.Errorf("report record after the re-judged hit: baseline %.12s diff %+v", got.BaselineHash, got.Diff)
	}

	// Tolerances alone moving re-judges too.
	tol3 := regress.Tolerances{RelWait: 0.25}
	_, ts3 := newTestServer(t, Config{Store: store, Tol: tol3})
	repA3, _ := postReport(t, ts3.URL+"/v1/cases", "application/json", blobA)
	if !repA3.Cached || repA3.Diff == nil || repA3.Diff.Tol != tol3.WithDefaults() {
		t.Errorf("resubmission under new tolerances: cached %v diff %+v; want tolerances %+v",
			repA3.Cached, repA3.Diff, tol3.WithDefaults())
	}
}

// TestSaveOnStoredHit: save=1 on a resubmission answered from the store
// still promotes the profile to the experiment baseline.
func TestSaveOnStoredHit(t *testing.T) {
	store := openStore(t)
	_, blob := corpusCase(t, "seed003.json")
	_, ts1 := newTestServer(t, Config{Store: store})
	rep1, _ := postReport(t, ts1.URL+"/v1/cases", "application/json", blob)
	if _, _, err := store.Baseline(conformance.DefaultExperiment); !errors.Is(err, regress.ErrNoBaseline) {
		t.Fatalf("baseline before save=1: err %v, want ErrNoBaseline", err)
	}

	s2, ts2 := newTestServer(t, Config{Store: store})
	rep2, resp2 := postReport(t, ts2.URL+"/v1/cases?save=1", "application/json", blob)
	if resp2.StatusCode != http.StatusOK || !rep2.Cached || !rep2.Saved {
		t.Fatalf("save=1 on a stored hit: status %s cached %v saved %v", resp2.Status, rep2.Cached, rep2.Saved)
	}
	if got := s2.AnalysesRun(); got != 0 {
		t.Errorf("AnalysesRun = %d, want 0", got)
	}
	_, hash, err := store.Baseline(conformance.DefaultExperiment)
	if err != nil {
		t.Fatal(err)
	}
	if hash != rep1.ProfileHash {
		t.Errorf("baseline %s, want the stored report's profile %s", hash, rep1.ProfileHash)
	}
}

// TestConcurrentDedupUnderEviction: clients resubmit three cases at once
// while MaxReports=1 evicts each report as the next completes.  Every
// submission succeeds with its case's one profile hash, whether it is
// answered by a fresh analysis, a pending report, memory or the store.
func TestConcurrentDedupUnderEviction(t *testing.T) {
	var blobs [][]byte
	for _, name := range []string{"seed001.json", "seed002.json", "seed003.json"} {
		_, blob := corpusCase(t, name)
		blobs = append(blobs, blob)
	}
	s, ts := newTestServer(t, Config{MaxReports: 1, Workers: 2, QueueDepth: 64})
	const clients, rounds = 6, 4
	hashes := make([][]string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(blobs)
				resp, err := http.Post(ts.URL+"/v1/cases", "application/json", bytes.NewReader(blobs[i]))
				if err != nil {
					t.Error(err)
					return
				}
				var rep Report
				err = json.NewDecoder(resp.Body).Decode(&rep)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d case %d: status %s, err %v", c, i, resp.Status, err)
					return
				}
				hashes[c] = append(hashes[c], fmt.Sprintf("%d:%s", i, rep.ProfileHash))
			}
		}(c)
	}
	wg.Wait()
	byCase := map[string]string{}
	for _, hs := range hashes {
		for _, h := range hs {
			i, hash, _ := strings.Cut(h, ":")
			if prev, ok := byCase[i]; ok && prev != hash {
				t.Errorf("case %s answered with profiles %s and %s", i, prev, hash)
			}
			byCase[i] = hash
		}
	}
	if n := s.AnalysesRun(); n < int64(len(blobs)) || n >= clients*rounds {
		t.Errorf("AnalysesRun = %d, want at least one per case and fewer than one per submission", n)
	}
}
