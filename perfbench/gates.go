package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/conformance"
	"repro/internal/similarity"
)

// verdict is the part of one case's oracle outcome the gates compare.
type verdict struct {
	Seed       uint64
	Violations []string
	Hash       string
	// Nondet marks cases whose profile hash legitimately varies between
	// runs (conformance.NondeterministicWaits); their hash is left out
	// of run-to-run digests.
	Nondet bool
}

func verdictOf(out conformance.Outcome) verdict {
	v := verdict{Seed: out.Case.Seed, Hash: out.Hash, Nondet: nondeterministic(out.Case)}
	for _, x := range out.Violations {
		v.Violations = append(v.Violations, x.String())
	}
	return v
}

// nondeterministic reports whether a case's profile hash may differ
// between two runs of it (see conformance.NondeterministicWaits).
func nondeterministic(cs conformance.Case) bool {
	for _, p := range cs.Props {
		if conformance.NondeterministicWaits[p.Name] {
			return true
		}
	}
	return false
}

// digest is an ordered hash over verdicts and profile hashes.  With
// withNondet false, the hashes of Nondet cases are replaced by a marker,
// so two independent runs of the same cases must produce equal digests.
func digest(vs []verdict, withNondet bool) string {
	h := sha256.New()
	for _, v := range vs {
		hash := v.Hash
		if v.Nondet && !withNondet {
			hash = "nondeterministic"
		}
		fmt.Fprintf(h, "%d %d %s\n", v.Seed, len(v.Violations), hash)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// gateClean requires every case to have passed every oracle axis.
func gateClean(vs []verdict) error {
	for _, v := range vs {
		if len(v.Violations) > 0 {
			return fmt.Errorf("case seed %d: %d oracle violations, first: %s", v.Seed, len(v.Violations), v.Violations[0])
		}
	}
	return nil
}

// gateDigest requires two runs over the same cases to agree.
func gateDigest(what string, want, got []verdict, withNondet bool) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d verdicts, want %d", what, len(got), len(want))
	}
	if a, b := digest(want, withNondet), digest(got, withNondet); a != b {
		for i := range want {
			if want[i].Seed != got[i].Seed || len(want[i].Violations) != len(got[i].Violations) ||
				((!want[i].Nondet || withNondet) && want[i].Hash != got[i].Hash) {
				return fmt.Errorf("%s: digest %s != %s, first difference at case seed %d", what, b[:12], a[:12], want[i].Seed)
			}
		}
		return fmt.Errorf("%s: digest %s != %s", what, b[:12], a[:12])
	}
	return nil
}

// gateHitRatio requires a warm replay to be served entirely by the cache.
func gateHitRatio(hits, misses int64) error {
	if misses != 0 || hits == 0 {
		return fmt.Errorf("replay: %d cache hits, %d misses: want hit ratio 1", hits, misses)
	}
	return nil
}

// gateHash requires a pipeline's profile hash to equal a reference
// computed another way.
func gateHash(what, want, got string) error {
	if want == "" || got != want {
		return fmt.Errorf("%s: profile hash %.12s, want %.12s", what, got, want)
	}
	return nil
}

// gateCached requires a resubmission to be served from the dedup cache.
func gateCached(what string, cached bool) error {
	if !cached {
		return fmt.Errorf("%s: resubmission was not served from the dedup cache", what)
	}
	return nil
}

// selfSimilarity is the similarity below which a match cannot tie with
// the query's own entry (stored in float32, so not exactly 1).
const selfSimilarity = 1 - 1e-9

// gateSelfMatch requires a similarity query's first match to be the
// queried profile itself or to tie with it: the embedding normalizes
// each block, so distinct profiles can sit at similarity 1 to each
// other (all clean profiles do), and the index ranks exact ties by hash.
// The query must then still be listed, unless its ties fill all k
// places.  tie reports that a different profile came first.
func gateSelfMatch(query string, matches []similarity.Match, k int) (tie bool, err error) {
	if len(matches) == 0 {
		return false, fmt.Errorf("similar %.12s: no matches", query)
	}
	if matches[0].Hash == query {
		return false, nil
	}
	if s := matches[0].Similarity; s < selfSimilarity {
		return false, fmt.Errorf("similar %.12s: first match %.12s at similarity %.12f, below the query's own",
			query, matches[0].Hash, s)
	}
	for _, m := range matches {
		if m.Hash == query {
			return true, nil
		}
	}
	if len(matches) < k {
		return false, fmt.Errorf("similar %.12s: the query is missing from its own %d matches", query, len(matches))
	}
	return true, nil
}
