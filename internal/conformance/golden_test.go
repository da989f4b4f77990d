package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/mpi"
	"repro/internal/perturb"
)

// goldenEngineDigest pins the event engine's observable output over
// generated seeds 1..goldenEngineSeeds plus the committed corpus.  It may
// only change together with a deliberate engine-version bump.
const (
	goldenEngineSeeds  = 200
	goldenEngineDigest = "c7da1550fff525fe8671ef4dbabd5984c64f54f2315a90e3513040b379b522b5"
)

// TestGoldenEngineDigest hashes, per case, the serialized ATS1 trace of
// the in-memory event-engine run, its profile hash and the streamed
// profile hash (chunk spool, Stream, AnalyzeStream) into one SHA-256.
// Cases with nondeterministic wait attribution contribute only what Check
// holds them to: that both runs succeed, and the trace's event count.
func TestGoldenEngineDigest(t *testing.T) {
	if eng := mpi.EffectiveDefault(); eng != mpi.EngineEvent {
		t.Fatalf("default engine is %s, want event", eng)
	}
	entries, err := LoadCorpus(filepath.Join("..", "..", "testdata", "conformance-corpus"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []CorpusEntry
	for seed := uint64(1); seed <= goldenEngineSeeds; seed++ {
		cases = append(cases, CorpusEntry{Name: fmt.Sprintf("seed%d", seed), Case: Generate(seed, Config{})})
	}
	cases = append(cases, entries...)

	h := sha256.New()
	for _, e := range cases {
		streamed, err := streamedCaseHash(e.Case, perturb.Profile{})
		if err != nil {
			t.Fatalf("%s: streamed run: %v", e.Name, err)
		}
		if hasNondeterministicWaits(e.Case) {
			tr, err := runCase(e.Case, perturb.Profile{})
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			fmt.Fprintf(h, "%s nondeterministic-waits events=%d\n", e.Name, len(tr.Events))
			continue
		}
		ats1, hash, err := engineRun(e.Case, perturb.Profile{}, mpi.EngineEvent)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(h, "%s %x %s %s\n", e.Name, sha256.Sum256(ats1), hash, streamed)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenEngineDigest {
		t.Fatalf("golden engine digest moved:\n got  %s\n want %s", got, goldenEngineDigest)
	}
}
