package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Native fuzz targets for the decoders that atsd runs on untrusted
// uploads: ATS1, a single ATSC frame, and a whole ATSC spool.  Every input
// must decode without panicking and without allocating more than its size
// admits under checkCount and Limits; an ATS1 input or frame that decodes
// must re-encode to exactly the bytes it was decoded from.

var fuzzLimits = Limits{MaxEvents: 1 << 12, MaxLocations: 1 << 8, MaxFrame: 1 << 16}

// allocBudget bounds the heap a decode of an n-byte input may take:
// checkCount admits at most n/min elements per section, each a few dozen
// bytes in memory at most, plus the fixed read buffer.
func allocBudget(n int) uint64 { return 64*uint64(n) + 16<<10 }

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func FuzzReadLimited(f *testing.F) {
	bufs := goldenBuffers()
	recordGolden(bufs)
	var golden bytes.Buffer
	if _, err := Merge(bufs...).Write(&golden); err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if _, err := Merge().Write(&empty); err != nil {
		f.Fatal(err)
	}
	hugeCount, err := os.ReadFile(filepath.Join("testdata", "corrupt-hugecount.ats"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden.Bytes())
	f.Add(golden.Bytes()[:golden.Len()/2])
	f.Add(empty.Bytes())
	f.Add(hugeCount)
	f.Add([]byte("NOPE"))
	f.Add([]byte("ATS1"))
	f.Add(append([]byte("ATS1"), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10))

	f.Fuzz(func(t *testing.T, data []byte) {
		var tr *Trace
		var err error
		if n := allocated(func() { tr, err = ReadLimited(bytes.NewReader(data), fuzzLimits) }); n > allocBudget(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if int64(len(tr.Events)) > fuzzLimits.MaxEvents || len(tr.Locations) > fuzzLimits.MaxLocations {
			t.Fatalf("admitted %d events at %d locations past %+v", len(tr.Events), len(tr.Locations), fuzzLimits)
		}
		var out bytes.Buffer
		if _, err := tr.Write(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("re-encoding differs from the decoded input:\n in  %x\n out %x", data, out.Bytes())
		}
	})
}

// goldenSpool encodes the golden program into an in-memory spool of
// three-event frames.
func goldenSpool(tb testing.TB) []byte {
	var spool bytes.Buffer
	w := NewChunkWriterTo(&spool, 3)
	bufs := goldenBuffers()
	for _, b := range bufs {
		w.Attach(b)
	}
	recordGolden(bufs)
	for _, b := range bufs {
		if err := w.Finish(b); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return spool.Bytes()
}

// longSpool returns the benchmark program's spool of full-size frames.
func longSpool(tb testing.TB) []byte {
	path := filepath.Join(tb.TempDir(), "long.atsc")
	writeBenchSpool(tb, path)
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzChunkFrame(f *testing.F) {
	// Seed with the first frames of a spool of short frames and of one of
	// full-size frames (later frames depend on earlier tables), and with
	// corrupt variants of one of them.
	var (
		first    []byte
		firstLoc Location
	)
	for _, spool := range [][]byte{goldenSpool(f), longSpool(f)} {
		r, err := NewChunkReader(bytes.NewReader(spool), int64(len(spool)), Limits{})
		if err != nil {
			f.Fatal(err)
		}
		for _, s := range r.streams[:len(goldenLocations)] {
			fr := s.frames[0]
			body := spool[fr.off : fr.off+fr.len]
			f.Add(s.loc.Rank, s.loc.Thread, body)
			first, firstLoc = body, s.loc
		}
	}
	garbage := bytes.Clone(first)
	for i := 2; i < 12 && i < len(garbage); i++ {
		garbage[i] = 0xFF
	}
	f.Add(firstLoc.Rank, firstLoc.Thread, garbage)
	f.Add(firstLoc.Rank, firstLoc.Thread, first[:len(first)-1])
	f.Add(firstLoc.Rank, firstLoc.Thread, append(bytes.Clone(first), 0))
	f.Add(int32(0), int32(0), []byte{0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, rank, thread int32, body []byte) {
		if int64(len(body)) > fuzzLimits.MaxFrame {
			return // the index rejects such a frame before it is read
		}
		loc := Location{Rank: rank, Thread: thread}
		c := &chunkCursor{ent: &chunkIndexEntry{loc: loc}, pathParent: []PathID{-1}, pathRegion: []RegionID{-1}}
		var evs []Event
		var err error
		if n := allocated(func() { evs, err = c.parseFrame(body) }); n > allocBudget(len(body)) {
			t.Fatalf("decoding a %d-byte frame allocated %d", len(body), n)
		}
		if err != nil {
			return
		}
		out := appendFrame(nil, loc, c.regions, c.pathParent[1:], c.pathRegion[1:], evs)
		if !bytes.Equal(out, body) {
			t.Fatalf("re-encoding differs from the decoded frame:\n in  %x\n out %x", body, out)
		}
	})
}

// drainSpool opens data as an ATSC spool under fuzzLimits and drains the
// merged stream over it, returning the event and location counts.
func drainSpool(data []byte) (events, locations int, err error) {
	r, err := NewChunkReader(bytes.NewReader(data), int64(len(data)), fuzzLimits)
	if err != nil {
		return 0, 0, err
	}
	st, err := NewStream(r)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	for {
		ev, err := st.Next()
		if err != nil {
			return 0, 0, err
		}
		if ev == nil {
			return st.Events(), len(st.Locations()), nil
		}
	}
}

func FuzzChunkSpool(f *testing.F) {
	// Seed with whole spools — short and full-size frames, and one with no
	// streams — plus truncated and trailer-corrupted variants, so the
	// index and trailer parser is reached from the first input.
	golden := goldenSpool(f)
	var empty bytes.Buffer
	if err := NewChunkWriterTo(&empty, 0).Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(longSpool(f))
	f.Add(empty.Bytes())
	f.Add(golden[:len(golden)/2])
	f.Add(golden[:len(golden)-1])
	badMagic := bytes.Clone(golden)
	badMagic[len(badMagic)-1] = 'Z'
	f.Add(badMagic)
	for _, off := range []uint64{0, chunkHeaderLen + 2, uint64(len(golden))} {
		bad := bytes.Clone(golden)
		binary.LittleEndian.PutUint64(bad[len(bad)-chunkTrailerLen:], off)
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var events, locations int
		var err error
		if n := allocated(func() { events, locations, err = drainSpool(data) }); n > allocBudget(len(data)) {
			t.Fatalf("decoding a %d-byte spool allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		if int64(events) > fuzzLimits.MaxEvents || locations > fuzzLimits.MaxLocations {
			t.Fatalf("admitted %d events at %d locations past %+v", events, locations, fuzzLimits)
		}
	})
}
