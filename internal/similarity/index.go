package similarity

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// IndexSchema identifies the on-disk index-log format; bump it on any
// breaking change to the header or entry encoding below.
const IndexSchema = 1

// IndexLogName is the index file inside an index directory.
const IndexLogName = "index.log"

// indexHeader is the first line of the log: the stamp that makes the
// index self-invalidating.  Any mismatch — format version, LSH
// geometry, or the profile schema the embeddings were computed from —
// discards the log and triggers a rebuild, the same discipline the
// result cache (package rescache) applies to its env stamp.
type indexHeader struct {
	Schema        int    `json:"schema"`
	Params        Params `json:"params"`
	ProfileSchema int    `json:"profile_schema"`
}

// indexEntry is one embedding line.  Vec components are rounded to
// float32 before writing, matching the in-memory representation, so an
// index reloaded from disk is bit-identical to the one that wrote it.
type indexEntry struct {
	Hash string    `json:"hash"`
	Vec  []float64 `json:"vec"`
}

// PersistentIndex is an Index backed by an append-only log: every Add
// lands in memory and as one JSON line on disk, so reopening the log
// replays the exact index state in O(entries) with no re-embedding.  It
// is safe for concurrent use by multiple goroutines.
//
// Several handles (in one process or many) may share one log: each
// appends through O_APPEND, so their lines interleave whole, and Follow
// replays what the others appended since this handle last read.
type PersistentIndex struct {
	mu   sync.Mutex
	path string
	ix   *Index
	f    *os.File
	// fi identifies the log file f refers to; Follow compares it with
	// the file at path to notice a log rebuilt behind this handle.
	fi os.FileInfo
	// off is the byte offset of the log this handle has read up to: the
	// end of its last replayed line, or of its own last append when
	// nothing from another handle came before it.
	off int64
}

// IndexExists reports whether dir holds an index log (of any vintage).
func IndexExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, IndexLogName))
	return err == nil
}

// OpenIndex opens (creating if necessary) the persistent index in dir.
// A log whose stamp does not match (params, IndexSchema, profileSchema)
// is discarded and restarted empty — the caller is expected to backfill
// from the profile store, which holds the ground truth.  A truncated
// tail (torn final write) is dropped, not fatal.
func OpenIndex(dir string, params Params, profileSchema int) (*PersistentIndex, error) {
	params = params.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("similarity: open index: %w", err)
	}
	path := filepath.Join(dir, IndexLogName)
	want := indexHeader{Schema: IndexSchema, Params: params, ProfileSchema: profileSchema}
	pi := &PersistentIndex{path: path, ix: NewIndex(params)}

	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("similarity: read index: %w", err)
	}
	good := 0 // byte offset past the last intact, in-stamp line
	if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
		var have indexHeader
		if json.Unmarshal(data[:nl+1], &have) == nil && have == want {
			good = nl + 1
			good += pi.replay(data[good:]) // a torn tail is dropped below
		}
	}

	if good == 0 {
		// Fresh log (or stamped by another world): restart with the
		// header line.  Atomic temp+rename so a crash never leaves a
		// half-written header behind the existence fast-path.
		blob, err := json.Marshal(want)
		if err != nil {
			return nil, fmt.Errorf("similarity: marshal header: %w", err)
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
			return nil, fmt.Errorf("similarity: write index: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, fmt.Errorf("similarity: write index: %w", err)
		}
	} else if good < len(data) {
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, fmt.Errorf("similarity: drop torn index tail: %w", err)
		}
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("similarity: append index: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("similarity: append index: %w", err)
	}
	pi.f, pi.fi = f, fi
	pi.off = int64(good)
	if good == 0 {
		pi.off = fi.Size() // the header line just written
	}
	return pi, nil
}

// replay adds the complete entry lines at the head of data to the
// in-memory index (known hashes are skipped, nothing is appended) and
// returns the bytes consumed.  It stops at the first line that is not
// complete, does not decode or does not fit the index geometry.
func (pi *PersistentIndex) replay(data []byte) int {
	n := 0
	for {
		nl := bytes.IndexByte(data[n:], '\n')
		if nl < 0 {
			return n
		}
		line := data[n : n+nl+1]
		var e indexEntry
		if json.Unmarshal(line, &e) != nil || pi.ix.Add(e.Hash, e.Vec) != nil {
			return n
		}
		n += len(line)
	}
}

// Follow brings the handle up to date with the log it shares with other
// handles: it reads only the bytes appended since the handle's read
// offset and replays their complete lines.  A torn or still-being-written
// last line is left for the next call.  Follow reports false when the
// log is no longer one this handle can follow: the file at the path was
// replaced (rebuilt for another stamp) or removed, it shrank below the
// read offset, or a complete line does not decode.  The caller then
// drops the handle, reopens the index and backfills it from the store.
func (pi *PersistentIndex) Follow() (bool, error) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.f == nil {
		return false, fmt.Errorf("similarity: index is closed")
	}
	cur, err := os.Stat(pi.path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("similarity: follow index: %w", err)
	}
	if !os.SameFile(pi.fi, cur) || cur.Size() < pi.off {
		return false, nil
	}
	if cur.Size() == pi.off {
		return true, nil
	}
	buf := make([]byte, cur.Size()-pi.off)
	n, err := pi.f.ReadAt(buf, pi.off)
	if err != nil && err != io.EOF {
		return false, fmt.Errorf("similarity: follow index: %w", err)
	}
	buf = buf[:n]
	used := pi.replay(buf)
	pi.off += int64(used)
	return bytes.IndexByte(buf[used:], '\n') < 0, nil
}

// Path returns the log location.
func (pi *PersistentIndex) Path() string { return pi.path }

// Params returns the index geometry.
func (pi *PersistentIndex) Params() Params { return pi.ix.Params() }

// Len returns the number of indexed profiles.
func (pi *PersistentIndex) Len() int {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.ix.Len()
}

// Has reports whether the profile hash is indexed.
func (pi *PersistentIndex) Has(hash string) bool {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.ix.Has(hash)
}

// Add indexes one embedding and appends it to the log.  Adding a known
// hash is a no-op, so replaying a store into an existing index is
// idempotent.
func (pi *PersistentIndex) Add(hash string, vec []float64) error {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.ix.Has(hash) {
		return nil
	}
	if pi.f == nil {
		return fmt.Errorf("similarity: index is closed")
	}
	// Round through float32 first so the logged entry replays to the
	// exact in-memory vector (rebuild ≡ incremental, bit for bit).
	rounded := make([]float64, len(vec))
	for i, x := range vec {
		rounded[i] = float64(float32(x))
	}
	if err := pi.ix.Add(hash, rounded); err != nil {
		return err
	}
	blob, err := json.Marshal(indexEntry{Hash: hash, Vec: rounded})
	if err != nil {
		return fmt.Errorf("similarity: marshal entry: %w", err)
	}
	line := append(blob, '\n')
	if _, err := pi.f.Write(line); err != nil {
		return fmt.Errorf("similarity: append index: %w", err)
	}
	// O_APPEND leaves the file offset at the end of this line.  When the
	// line starts at the read offset, no other handle wrote in between
	// and Follow need not read it back.
	if end, err := pi.f.Seek(0, io.SeekCurrent); err == nil && end-int64(len(line)) == pi.off {
		pi.off = end
	}
	return nil
}

// Query is Index.Query under the lock.
func (pi *PersistentIndex) Query(vec []float64, k int) ([]Match, int, error) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.ix.Query(vec, k)
}

// Scan is Index.Scan (exact brute force) under the lock.
func (pi *PersistentIndex) Scan(vec []float64, k int) ([]Match, error) {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	return pi.ix.Scan(vec, k)
}

// Close releases the append handle.  The index stays readable.
func (pi *PersistentIndex) Close() error {
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.f == nil {
		return nil
	}
	err := pi.f.Close()
	pi.f = nil
	return err
}
