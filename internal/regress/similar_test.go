package regress_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/regress"
	"repro/internal/similarity"
)

// TestStoreSimilarSelfMatch: after EnsureIndex, every stored profile's
// nearest neighbor is itself at similarity 1.
func TestStoreSimilarSelfMatch(t *testing.T) {
	store, err := regress.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		h, err := store.Put(similarity.SyntheticProfile(21, i))
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	for i := 0; i < len(hashes); i += 7 {
		h := hashes[i]
		matches, probed, err := store.Similar(h, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 || matches[0].Hash != h {
			t.Fatalf("Similar(%s) top-1 = %+v, want self", h[:12], matches)
		}
		if matches[0].Similarity < 0.999999 {
			t.Fatalf("self similarity = %v", matches[0].Similarity)
		}
		if probed <= 0 {
			t.Fatalf("probed = %d", probed)
		}
	}
}

// TestStorePutUpdatesIndexIncrementally: once a store has an index,
// every subsequent Put keeps it current — and the incrementally grown
// index answers exactly like one rebuilt from scratch over the same
// objects (the rebuild ≡ incremental invariant of the CI smoke).
func TestStorePutUpdatesIndexIncrementally(t *testing.T) {
	incDir := filepath.Join(t.TempDir(), "inc")
	store, err := regress.Open(incDir)
	if err != nil {
		t.Fatal(err)
	}
	// Seed a few objects, then create the index (backfills them).
	for i := 0; i < 5; i++ {
		if _, err := store.Put(similarity.SyntheticProfile(33, i)); err != nil {
			t.Fatal(err)
		}
	}
	if similarity.IndexExists(filepath.Join(incDir, "similarity")) {
		t.Fatal("Put conjured up an index on an index-less store")
	}
	idx, err := store.EnsureIndex()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 5 {
		t.Fatalf("backfilled index has %d entries, want 5", idx.Len())
	}
	// Further Puts land in the index without another EnsureIndex walk.
	var lastHash string
	for i := 5; i < 20; i++ {
		if lastHash, err = store.Put(similarity.SyntheticProfile(33, i)); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 20 {
		t.Fatalf("incremental index has %d entries, want 20", idx.Len())
	}
	if !idx.Has(lastHash) {
		t.Fatal("last Put missing from index")
	}

	// A second store over the same objects, rebuilt from nothing, must
	// answer queries identically.
	rebDir := filepath.Join(t.TempDir(), "reb")
	rebuilt, err := regress.Open(rebDir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 19; i >= 0; i-- { // same profiles, reversed insertion order
		if _, err := rebuilt.Put(similarity.SyntheticProfile(33, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rebuilt.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i += 7 {
		p := similarity.SyntheticProfile(33, i)
		a, _, err := store.SimilarProfile(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := rebuilt.SimilarProfile(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: incremental %+v != rebuilt %+v", i, a, b)
		}
	}
}

// TestStoreSimilarUnknownHash: querying a hash the store does not hold
// is an error, not an empty answer.
func TestStoreSimilarUnknownHash(t *testing.T) {
	store, err := regress.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	missing := fmt.Sprintf("%064d", 7)
	if _, _, err := store.Similar(missing, 3); err == nil {
		t.Fatal("Similar on a missing hash succeeded")
	}
	if _, _, err := store.Similar("../../etc/passwd", 3); err == nil {
		t.Fatal("Similar accepted a non-hash")
	}
}

// plantObject writes a profile straight into objects/, past Put and its
// index append: only a walk of objects/ can find it.  Tests use it to
// tell a backfill walk from following the log.
func plantObject(t *testing.T, dir string, p *profile.Profile) string {
	t.Helper()
	hash, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "objects", hash[:2], hash+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return hash
}

// warmStore opens a store over n synthetic profiles with its index
// backfilled.
func warmStore(t testing.TB, dir string, seed uint64, n int) (*regress.Store, []string) {
	t.Helper()
	store, err := regress.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, n)
	for i := range hashes {
		if hashes[i], err = store.Put(similarity.SyntheticProfile(seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.EnsureIndex(); err != nil {
		t.Fatal(err)
	}
	return store, hashes
}

// TestSimilarFollowsOtherHandle: a profile Put through a second Store
// handle after the first handle's index is warm is found by the first
// handle's Similar — by following the log, not by walking objects/ (a
// planted object stays unindexed).
func TestSimilarFollowsOtherHandle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	first, _ := warmStore(t, dir, 41, 20)
	planted := plantObject(t, dir, similarity.SyntheticProfile(41, 100))

	second, err := regress.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	added, err := second.Put(similarity.SyntheticProfile(41, 101))
	if err != nil {
		t.Fatal(err)
	}
	matches, _, err := first.Similar(added, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 || matches[0].Hash != added {
		t.Fatalf("first handle's Similar(%s) = %+v, want the second handle's object first", added[:12], matches)
	}
	idx, err := first.EnsureIndex()
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 21 || idx.Has(planted) {
		t.Fatalf("index Len %d, planted indexed %v: want 21 and no walk", idx.Len(), idx.Has(planted))
	}
}

// TestEnsureIndexReloadsRebuiltLog: when another handle rebuilds the log
// (replaced for another stamp, removed and recreated, or truncated),
// the first handle reopens it and walks once more, covering the whole
// store again.
func TestEnsureIndexReloadsRebuiltLog(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rebuild func(t *testing.T, logPath string)
	}{
		{"restamped", func(t *testing.T, logPath string) {
			pi, err := similarity.OpenIndex(filepath.Dir(logPath), similarity.DefaultParams, profile.SchemaVersion+1)
			if err != nil {
				t.Fatal(err)
			}
			pi.Close()
		}},
		{"recreated", func(t *testing.T, logPath string) {
			if err := os.Remove(logPath); err != nil {
				t.Fatal(err)
			}
			other, err := regress.Open(filepath.Dir(filepath.Dir(logPath)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := other.EnsureIndex(); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, logPath string) {
			blob, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(logPath, int64(bytes.IndexByte(blob, '\n')+1)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			store, hashes := warmStore(t, dir, 43, 12)
			planted := plantObject(t, dir, similarity.SyntheticProfile(43, 100))
			tc.rebuild(t, filepath.Join(dir, "similarity", similarity.IndexLogName))
			idx, err := store.EnsureIndex()
			if err != nil {
				t.Fatal(err)
			}
			if idx.Len() != len(hashes)+1 || !idx.Has(planted) {
				t.Fatalf("reloaded index: Len %d, planted %v; want %d and the walk's find",
					idx.Len(), idx.Has(planted), len(hashes)+1)
			}
			for _, h := range hashes {
				if !idx.Has(h) {
					t.Fatalf("reloaded index misses %s", h[:12])
				}
			}
		})
	}
}

// BenchmarkStoreSimilar measures a warm Store.Similar at 2000 profiles
// against the index query alone: after the first call, the rest of the
// cost is the object read, the embedding and a stat of the log.
func BenchmarkStoreSimilar(b *testing.B) {
	store, hashes := warmStore(b, filepath.Join(b.TempDir(), "store"), 47, 2000)
	b.Run("similar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := store.Similar(hashes[i%len(hashes)], 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query", func(b *testing.B) {
		idx, err := store.EnsureIndex()
		if err != nil {
			b.Fatal(err)
		}
		vecs := make([][]float64, 64)
		for i := range vecs {
			vecs[i] = similarity.Embed(similarity.SyntheticProfile(47, i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := idx.Query(vecs[i%len(vecs)], 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestIndexConcurrentHandles: goroutines Put through two handles on one
// store while others query through both; afterwards each handle's index
// covers every object, as a walk of the store would.
func TestIndexConcurrentHandles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	a, _ := warmStore(t, dir, 53, 4)
	b, err := regress.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	handles := []*regress.Store{a, b}
	const writers, per = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := handles[w%2].Put(similarity.SyntheticProfile(53, 100+w*per+i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := handles[w%2].SimilarProfile(similarity.SyntheticProfile(53, i), 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	hashes, err := a.Objects()
	if err != nil {
		t.Fatal(err)
	}
	if len(hashes) != 4+writers*per {
		t.Fatalf("store holds %d objects, want %d", len(hashes), 4+writers*per)
	}
	for i, h := range handles {
		idx, err := h.EnsureIndex()
		if err != nil {
			t.Fatal(err)
		}
		if idx.Len() != len(hashes) {
			t.Errorf("handle %d indexes %d profiles, want %d", i, idx.Len(), len(hashes))
		}
		for _, hash := range hashes {
			if !idx.Has(hash) {
				t.Errorf("handle %d misses %s", i, hash[:12])
			}
		}
	}
}
