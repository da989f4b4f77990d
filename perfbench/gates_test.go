package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/server"
	"repro/internal/similarity"
)

func hashOf(i int) string { return fmt.Sprintf("%064x", i) }

func sweepOf(n int) []verdict {
	vs := make([]verdict, n)
	for i := range vs {
		vs[i] = verdict{Seed: uint64(100 + i), Hash: hashOf(i)}
	}
	return vs
}

func TestGateCleanTripsOnAViolation(t *testing.T) {
	vs := sweepOf(5)
	if err := gateClean(vs); err != nil {
		t.Fatal(err)
	}
	vs[3].Violations = []string{"[positive] late_sender: wait 0, closed form 0.1"}
	if err := gateClean(vs); err == nil || !strings.Contains(err.Error(), "seed 103") {
		t.Fatalf("gateClean = %v, want the violating seed named", err)
	}
}

func TestGateDigestTripsOnWrongHashOrVerdict(t *testing.T) {
	want := sweepOf(8)
	if err := gateDigest("t", want, sweepOf(8), true); err != nil {
		t.Fatal(err)
	}

	wrongHash := sweepOf(8)
	wrongHash[5].Hash = hashOf(99)
	if err := gateDigest("t", want, wrongHash, false); err == nil || !strings.Contains(err.Error(), "seed 105") {
		t.Fatalf("wrong hash: %v", err)
	}

	wrongVerdict := sweepOf(8)
	wrongVerdict[2].Violations = []string{"[negative] spurious wait"}
	if err := gateDigest("t", want, wrongVerdict, true); err == nil || !strings.Contains(err.Error(), "seed 102") {
		t.Fatalf("wrong verdict: %v", err)
	}

	if err := gateDigest("t", want, sweepOf(7), true); err == nil {
		t.Fatal("a shorter sweep passed")
	}

	// A case whose hash may vary between runs is compared by verdict
	// only across runs, but exactly within one cache.
	want[4].Nondet = true
	nondet := sweepOf(8)
	nondet[4].Nondet = true
	nondet[4].Hash = hashOf(77)
	if err := gateDigest("t", want, nondet, false); err != nil {
		t.Fatalf("nondeterministic hash compared across runs: %v", err)
	}
	if err := gateDigest("t", want, nondet, true); err == nil {
		t.Fatal("replayed hash differing from the cached one passed")
	}
}

func TestGateHitRatio(t *testing.T) {
	if err := gateHitRatio(500, 0); err != nil {
		t.Fatal(err)
	}
	if err := gateHitRatio(499, 1); err == nil {
		t.Fatal("a miss passed")
	}
	if err := gateHitRatio(0, 0); err == nil {
		t.Fatal("an empty replay passed")
	}
}

func TestGateHashTripsOnWrongHash(t *testing.T) {
	if err := gateHash("t", hashOf(1), hashOf(1)); err != nil {
		t.Fatal(err)
	}
	if err := gateHash("t", hashOf(1), hashOf(2)); err == nil {
		t.Fatal("wrong hash passed")
	}
	if err := gateHash("t", "", ""); err == nil {
		t.Fatal("missing reference passed")
	}
}

func TestGateSelfMatch(t *testing.T) {
	m := func(h int, sim float64) similarity.Match { return similarity.Match{Hash: hashOf(h), Similarity: sim} }
	for _, tc := range []struct {
		name    string
		matches []similarity.Match
		tie     bool
		fail    bool
	}{
		{"self first", []similarity.Match{m(1, 1), m(2, 0.5)}, false, false},
		{"tie ranked first", []similarity.Match{m(0, 1), m(1, 1), m(2, 0.5)}, true, false},
		{"ties fill k", []similarity.Match{m(2, 1), m(3, 1), m(4, 1), m(5, 1), m(6, 1)}, true, false},
		{"other profile first", []similarity.Match{m(2, 0.97), m(1, 1)}, false, true},
		{"query missing", []similarity.Match{m(2, 1), m(3, 0.4)}, false, true},
		{"no matches", nil, false, true},
	} {
		tie, err := gateSelfMatch(hashOf(1), tc.matches, 5)
		if (err != nil) != tc.fail || tie != tc.tie {
			t.Errorf("%s: tie %v err %v", tc.name, tie, err)
		}
	}
}

// TestServerRepliesGated feeds the per-request gate replies with a wrong
// hash and a missing dedup flag.
func TestServerRepliesGated(t *testing.T) {
	cs := conformance.Generate(1, conformance.Config{})
	fresh := []string{hashOf(1)}
	body := func(rep server.Report) []byte {
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dedup := request{class: classDedup, cs: cs, fresh: 0}

	rp := reply{class: classDedup}
	if err := check(&rp, body(server.Report{ProfileHash: hashOf(1), Cached: true}), fresh, dedup); err != nil {
		t.Fatal(err)
	}
	rp = reply{class: classDedup}
	if err := check(&rp, body(server.Report{ProfileHash: hashOf(2), Cached: true}), fresh, dedup); err == nil {
		t.Fatal("resubmission with a different hash passed")
	}
	rp = reply{class: classDedup}
	if err := check(&rp, body(server.Report{ProfileHash: hashOf(1)}), fresh, dedup); err == nil {
		t.Fatal("resubmission not served by dedup passed")
	}
	rp = reply{class: classSimilar, hash: hashOf(1)}
	if err := check(&rp, []byte(`{"matches": []}`), fresh, request{class: classSimilar}); err == nil {
		t.Fatal("similar reply without matches passed")
	}
}
