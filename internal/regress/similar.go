package regress

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/profile"
	"repro/internal/similarity"
)

// similaritySubdir holds the persistent LSH index inside a store root,
// alongside objects/ and refs.json.
const similaritySubdir = "similarity"

func (s *Store) similarityDir() string { return filepath.Join(s.dir, similaritySubdir) }

// Objects enumerates every object hash in the store (sharded and legacy
// flat layouts), sorted ascending.  It reads directory names only — no
// object is opened — so walking a million-profile store stays cheap.
func (s *Store) Objects() ([]string, error) {
	root := filepath.Join(s.dir, "objects")
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("regress: list objects: %w", err)
	}
	var out []string
	add := func(name string) {
		hash := strings.TrimSuffix(name, ".json")
		if len(hash) < len(name) && ValidHash(hash) {
			out = append(out, hash)
		}
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			add(ent.Name()) // legacy flat object
			continue
		}
		if len(ent.Name()) != 2 {
			continue
		}
		shard, err := os.ReadDir(filepath.Join(root, ent.Name()))
		if err != nil {
			return nil, fmt.Errorf("regress: list objects: %w", err)
		}
		for _, obj := range shard {
			if !obj.IsDir() {
				add(obj.Name())
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// EnsureIndex opens the store's persistent similarity index (creating
// or rebuilding it when absent or stamped by an incompatible schema) and
// returns it covering the whole store.  Only the first call on a Store
// handle walks objects/ and backfills what the index does not know;
// later calls follow the log, replaying just the lines other handles or
// processes appended since.  The order makes this safe: Put writes the
// object before it checks for a log, and the log exists before the
// walk, so another writer's object either lands in the log or is seen
// by the walk.  When the log was rebuilt or truncated behind this
// handle, the next call reopens it and walks once more.
func (s *Store) EnsureIndex() (*similarity.PersistentIndex, error) {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	if s.sim != nil && s.simBackfilled {
		current, err := s.sim.Follow()
		if err != nil {
			return nil, err
		}
		if current {
			return s.sim, nil
		}
		_ = s.sim.Close() // every append has returned; the log is being reread
		s.sim, s.simBackfilled = nil, false
	}
	if s.sim == nil {
		idx, err := s.openIndex()
		if err != nil {
			return nil, err
		}
		s.sim = idx
	}
	hashes, err := s.Objects()
	if err != nil {
		return nil, err
	}
	for _, hash := range hashes {
		if s.sim.Has(hash) {
			continue
		}
		p, err := s.Get(hash)
		if err != nil {
			return nil, fmt.Errorf("regress: index backfill: %w", err)
		}
		if err := s.sim.Add(hash, similarity.Embed(p)); err != nil {
			return nil, fmt.Errorf("regress: index backfill: %w", err)
		}
	}
	s.simBackfilled = true
	return s.sim, nil
}

// openIndex opens the log.  The index geometry is stamped with the
// profile schema: bumping either discards and rebuilds.
func (s *Store) openIndex() (*similarity.PersistentIndex, error) {
	return similarity.OpenIndex(s.similarityDir(), similarity.DefaultParams, profile.SchemaVersion)
}

// indexAdd incrementally indexes a newly stored object — but only when
// the store has an index at all: plain `atsregress save` runs against
// index-less stores must not conjure one up.  EnsureIndex (the similar
// CLI/endpoint path) creates the index and backfills whatever Puts
// happened before it existed.  The append runs under simMu, so it never
// lands on a handle EnsureIndex has just closed.
func (s *Store) indexAdd(hash string, p *profile.Profile) error {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	if s.sim == nil {
		if !similarity.IndexExists(s.similarityDir()) {
			return nil
		}
		idx, err := s.openIndex()
		if err != nil {
			return err
		}
		s.sim = idx
	}
	return s.sim.Add(hash, similarity.Embed(p))
}

// Similar returns the k stored profiles most similar to the stored
// object with the given hash, ordered by similarity (descending) and then
// by hash.  The query is itself indexed, but its entry need not lead the
// result: distinct profiles can embed at similarity 1 (every profile
// without findings, for one), exact ties are ordered by hash, and with
// more such ties than k the query's own entry can fall outside the
// result.  The index is ensured first (EnsureIndex): backfilled on the
// handle's first query, followed through its log after that.
func (s *Store) Similar(hash string, k int) ([]similarity.Match, int, error) {
	p, err := s.Get(hash)
	if err != nil {
		return nil, 0, err
	}
	return s.SimilarProfile(p, k)
}

// Indexed returns how many profiles the handle's similarity index
// holds: the count its last EnsureIndex left, plus any Put since.  It is
// zero before the index is opened.
func (s *Store) Indexed() int {
	s.simMu.Lock()
	defer s.simMu.Unlock()
	if s.sim == nil {
		return 0
	}
	return s.sim.Len()
}

// SimilarProfile is Similar for a profile that need not be stored —
// the "which past run does this new regression look like?" query.
func (s *Store) SimilarProfile(p *profile.Profile, k int) ([]similarity.Match, int, error) {
	idx, err := s.EnsureIndex()
	if err != nil {
		return nil, 0, err
	}
	return idx.Query(similarity.Embed(p), k)
}
