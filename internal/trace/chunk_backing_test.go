package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The two backings of an ATSC spool — a file from NewChunkWriter and
// OpenChunkFile, any io.Writer/io.ReaderAt from NewChunkWriterTo and
// NewChunkReader — share one encoder and one decoder, so they must agree
// byte for byte and rejection for rejection.

// TestChunkWriterToMatchesFile spools the same run once to a file and once
// into memory and requires identical bytes, for frame sizes from one event
// to a single frame per location.
func TestChunkWriterToMatchesFile(t *testing.T) {
	locs := append(rankLocs(3), fixtureLoc{loc: Location{Rank: 1, Thread: 1}, base: 1})
	for _, spill := range []int{1, 4, DefaultSpillEvents, 1 << 20} {
		t.Run(fmt.Sprintf("spill=%d", spill), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.atsc")
			buildSpool(t, path, locs, 40, spill)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var mem bytes.Buffer
			recordSpool(t, NewChunkWriterTo(&mem, spill), locs, 40)
			if !bytes.Equal(file, mem.Bytes()) {
				t.Fatalf("in-memory spool (%d bytes) differs from the file (%d bytes)", mem.Len(), len(file))
			}
		})
	}
}

// corruptSpools returns TestChunkCorruption's mutated spools by name.
func corruptSpools(t *testing.T) map[string][]byte {
	var valid bytes.Buffer
	recordSpool(t, NewChunkWriterTo(&valid, 4), rankLocs(2), 6)
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(valid.Bytes())) }
	setIndexOff := func(off uint64) []byte {
		return mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-chunkTrailerLen:], off)
			return b
		})
	}

	var huge bytes.Buffer
	huge.Write(chunkMagic[:])
	huge.WriteByte(chunkVersion)
	huge.WriteByte(chunkTagEnd)
	indexOff := huge.Len()
	writeUvarint(&huge, 1)             // one stream
	writeVarint(&huge, 0)              // rank
	writeVarint(&huge, 0)              // thread
	writeUvarint(&huge, uint64(1)<<60) // events: implausible
	writeUvarint(&huge, 0)             // no frames
	huge.Write(binary.LittleEndian.AppendUint64(nil, uint64(indexOff)))
	huge.Write(chunkTrailerMagic[:])

	return map[string][]byte{
		"bad-magic":                mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"bad-version":              mutate(func(b []byte) []byte { b[4] = 99; return b }),
		"bad-trailer-magic":        mutate(func(b []byte) []byte { b[len(b)-1] = 'Z'; return b }),
		"truncated":                mutate(func(b []byte) []byte { return b[:len(b)/2] }),
		"too-short":                []byte("ATSC"),
		"index-offset-beyond-file": setIndexOff(uint64(valid.Len())),
		"index-offset-into-header": setIndexOff(2),
		"index-offset-misaligned":  setIndexOff(chunkHeaderLen + 2),
		"frame-garbage": mutate(func(b []byte) []byte {
			for i := chunkHeaderLen + 2; i < chunkHeaderLen+12; i++ {
				b[i] = 0xFF
			}
			return b
		}),
		"huge-event-count": huge.Bytes(),
	}
}

// rejection opens a spool and drains it, returning the stage that
// rejected it ("open", "prime" or "drain") and the error, or ("", nil).
func rejection(r *ChunkReader, err error) (string, error) {
	if err != nil {
		return "open", err
	}
	st, err := NewStream(r)
	if err != nil {
		return "prime", err
	}
	defer st.Close()
	for {
		ev, err := st.Next()
		if err != nil {
			return "drain", err
		}
		if ev == nil {
			return "", nil
		}
	}
}

// TestChunkCorruptionInMemory feeds TestChunkCorruption's mutated spools
// to NewChunkReader over a bytes.Reader and to OpenChunkFile, and requires
// both to reject each at the same stage with the same message (the file
// reader prefixes open errors with the path).
func TestChunkCorruptionInMemory(t *testing.T) {
	for name, spool := range corruptSpools(t) {
		t.Run(name, func(t *testing.T) {
			memStage, memErr := rejection(NewChunkReader(bytes.NewReader(spool), int64(len(spool)), Limits{}))
			if memErr == nil {
				t.Fatal("corrupt spool accepted from memory")
			}
			path := filepath.Join(t.TempDir(), "corrupt.atsc")
			if err := os.WriteFile(path, spool, 0o644); err != nil {
				t.Fatal(err)
			}
			fileStage, fileErr := rejection(OpenChunkFile(path))
			if fileStage != memStage || fileErr == nil || !strings.HasSuffix(fileErr.Error(), memErr.Error()) {
				t.Fatalf("file rejects at %s with %v; memory at %s with %v", fileStage, fileErr, memStage, memErr)
			}
		})
	}
}

// eofAtEnd is an io.ReaderAt that, as the interface allows, reports io.EOF
// together with a full read that ends at the end of its data.
type eofAtEnd struct{ *bytes.Reader }

func (r eofAtEnd) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.Reader.ReadAt(p, off)
	if err == nil && off+int64(n) == r.Size() {
		err = io.EOF
	}
	return n, err
}

// TestChunkReaderSourceSize: a full read that comes with io.EOF is a
// success, and a size beyond the source's data is rejected.
func TestChunkReaderSourceSize(t *testing.T) {
	var spool bytes.Buffer
	recordSpool(t, NewChunkWriterTo(&spool, 4), rankLocs(2), 6)
	data := spool.Bytes()
	r, err := NewChunkReader(eofAtEnd{bytes.NewReader(data)}, int64(len(data)), Limits{})
	if err != nil {
		t.Fatalf("NewChunkReader with io.EOF on the trailer read: %v", err)
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := len(drainStream(t, st)); got != r.Events() {
		t.Fatalf("drained %d events, index records %d", got, r.Events())
	}
	if _, err := NewChunkReader(bytes.NewReader(data), int64(len(data))+1, Limits{}); err == nil {
		t.Fatal("size past the end of the source accepted")
	}
}
