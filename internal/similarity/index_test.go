package similarity

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// queryTop returns the hashes of the top-k matches — the comparison
// currency of the persistence tests.
func queryTop(t *testing.T, pi *PersistentIndex, vec []float64, k int) []string {
	t.Helper()
	matches, _, err := pi.Query(vec, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(matches))
	for i, m := range matches {
		out[i] = m.Hash
	}
	return out
}

// TestPersistentIndexRoundTrip: entries added incrementally must replay
// identically from the log — including float32 rounding, so reopen ≡
// in-memory bit for bit.
func TestPersistentIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pi, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		vecs[i] = Embed(SyntheticProfile(3, i))
		if err := pi.Add(fakeHash(i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	want := queryTop(t, pi, vecs[7], 5)
	if err := pi.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), n)
	}
	if got := queryTop(t, re, vecs[7], 5); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened query = %v, want %v", got, want)
	}
}

// TestPersistentIndexRebuildEqualsIncremental: an index grown Add by
// Add must answer queries identically to one rebuilt from scratch over
// the same profiles — the CI smoke's invariant.
func TestPersistentIndexRebuildEqualsIncremental(t *testing.T) {
	const n = 80
	incDir, rebDir := t.TempDir(), t.TempDir()
	inc, err := OpenIndex(incDir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	vecs := make([][]float64, n)
	for i := 0; i < n; i++ {
		vecs[i] = Embed(SyntheticProfile(11, i))
		if err := inc.Add(fakeHash(i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	reb, err := OpenIndex(rebDir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer reb.Close()
	for i := 0; i < n; i++ { // same set, different insertion pattern
		if err := reb.Add(fakeHash(n-1-i), vecs[n-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	for q := 0; q < n; q += 13 {
		a := queryTop(t, inc, vecs[q], 10)
		b := queryTop(t, reb, vecs[q], 10)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: incremental %v != rebuilt %v", q, a, b)
		}
	}
}

// TestPersistentIndexTornTail: a torn final write (partial last line)
// is dropped on reopen; the intact prefix survives and the next Add
// lands cleanly after it.
func TestPersistentIndexTornTail(t *testing.T) {
	dir := t.TempDir()
	pi, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := pi.Add(fakeHash(i), Embed(SyntheticProfile(5, i))); err != nil {
			t.Fatal(err)
		}
	}
	path := pi.Path()
	pi.Close()

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-17], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 9 {
		t.Fatalf("Len after torn tail = %d, want 9", re.Len())
	}
	if re.Has(fakeHash(9)) {
		t.Error("torn entry survived reopen")
	}
	// The dropped entry can be re-added and a further reopen sees 10.
	if err := re.Add(fakeHash(9), Embed(SyntheticProfile(5, 9))); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 10 {
		t.Fatalf("Len after repair = %d, want 10", re2.Len())
	}
}

// TestPersistentIndexStampInvalidation: a log written under different
// LSH geometry or profile schema is discarded, not misread.
func TestPersistentIndexStampInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name          string
		params        Params
		profileSchema int
	}{
		{"geometry change", Params{Dims: Dims, Bits: 8, Tables: 2}, 1},
		{"profile schema bump", Params{}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pi, err := OpenIndex(dir, Params{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := pi.Add(fakeHash(1), Embed(SyntheticProfile(1, 1))); err != nil {
				t.Fatal(err)
			}
			pi.Close()

			re, err := OpenIndex(dir, tc.params, tc.profileSchema)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != 0 {
				t.Fatalf("stamp mismatch kept %d entries, want rebuild from empty", re.Len())
			}
		})
	}
}

// TestPersistentIndexGarbage: a log that is not an index at all is
// discarded and restarted, never fatal.
func TestPersistentIndexGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, IndexLogName), []byte("not json\n{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pi, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pi.Close()
	if pi.Len() != 0 {
		t.Fatalf("Len = %d over garbage log", pi.Len())
	}
	if err := pi.Add(fakeHash(1), Embed(SyntheticProfile(1, 1))); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentIndexFollow: two handles appending to one log in
// turn each replay the other's lines — and only those: Follow appends
// nothing and leaves the log as it was.  A torn last line is skipped
// until it is complete, then picked up.
func TestPersistentIndexFollow(t *testing.T) {
	dir := t.TempDir()
	a, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const n = 8
	vecs := make([][]float64, n+1)
	for i := range vecs {
		vecs[i] = Embed(SyntheticProfile(9, i))
	}
	for i := 0; i < n; i++ { // interleaved: even i through a, odd through b
		h := a
		if i%2 == 1 {
			h = b
		}
		if err := h.Add(fakeHash(i), vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(a.Path())
	if err != nil {
		t.Fatal(err)
	}
	follow := func(pi *PersistentIndex) {
		t.Helper()
		current, err := pi.Follow()
		if err != nil || !current {
			t.Fatalf("Follow = %v, %v; want true, nil", current, err)
		}
	}
	follow(a)
	follow(b)
	for _, pi := range []*PersistentIndex{a, b} {
		if pi.Len() != n {
			t.Fatalf("Len after Follow = %d, want %d", pi.Len(), n)
		}
	}
	after, err := os.ReadFile(a.Path())
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("Follow changed the log")
	}
	re, err := OpenIndex(dir, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for q := 0; q < n; q += 3 {
		want := queryTop(t, re, vecs[q], 5)
		if got := queryTop(t, a, vecs[q], 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: followed %v != reopened %v", q, got, want)
		}
	}

	// A third writer's line lands in two pieces.
	line, err := json.Marshal(indexEntry{Hash: fakeHash(n), Vec: vecs[n]})
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')
	f, err := os.OpenFile(a.Path(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(line[:len(line)/2]); err != nil {
		t.Fatal(err)
	}
	follow(a)
	if a.Has(fakeHash(n)) {
		t.Fatal("torn line replayed")
	}
	if _, err := f.Write(line[len(line)/2:]); err != nil {
		t.Fatal(err)
	}
	follow(a)
	if !a.Has(fakeHash(n)) || a.Len() != n+1 {
		t.Fatalf("completed line not replayed: Len %d", a.Len())
	}
}

// TestPersistentIndexFollowStale: Follow reports false, so the caller
// reopens, when the log was replaced, truncated, removed or holds a
// complete line that does not decode.
func TestPersistentIndexFollowStale(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, dir, path string)
	}{
		{"restamped", func(t *testing.T, dir, _ string) {
			pi, err := OpenIndex(dir, Params{}, 2)
			if err != nil {
				t.Fatal(err)
			}
			pi.Close()
		}},
		{"truncated", func(t *testing.T, _, path string) {
			if err := os.Truncate(path, 10); err != nil {
				t.Fatal(err)
			}
		}},
		{"removed", func(t *testing.T, _, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage line", func(t *testing.T, _, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteString("not json\n"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			pi, err := OpenIndex(dir, Params{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer pi.Close()
			if err := pi.Add(fakeHash(1), Embed(SyntheticProfile(1, 1))); err != nil {
				t.Fatal(err)
			}
			tc.spoil(t, dir, pi.Path())
			if current, err := pi.Follow(); err != nil || current {
				t.Fatalf("Follow = %v, %v; want false, nil", current, err)
			}
			if pi.Len() != 1 {
				t.Fatalf("stale Follow changed the index: Len %d", pi.Len())
			}
		})
	}
}
