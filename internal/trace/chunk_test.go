package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fillBuffer records a deterministic mix of event kinds into b.  The same
// (rank, n) always produces the same events, so a spooled and an in-memory
// copy of a "run" can be built independently.
func fillBuffer(b *Buffer, rank int32, n int) {
	t := float64(rank) * 0.001
	b.Enter("main", t)
	for i := 0; i < n; i++ {
		t += 0.001
		b.Enter(fmt.Sprintf("region%d", i%3), t)
		t += 0.001
		b.Record(Event{Time: t, Kind: KindSend, Peer: rank + 1, CRank: rank, Tag: 7,
			Bytes: 1024, Match: uint64(rank)*1000 + uint64(i), Flags: FlagSync})
		t += 0.001
		b.Record(Event{Time: t, Aux: t - 0.0005, Kind: KindColl, Coll: CollBarrier,
			Root: -1, Comm: 0, Match: uint64(i)})
		t += 0.001
		b.Exit(t)
	}
	t += 0.001
	b.Exit(t)
}

// fixtureLoc is one location of a test run and the rank whose event
// sequence fillBuffer records into it.  Locations sharing a base record
// events at exactly equal times, so the merge order among them rests on
// its Location tie-break alone.
type fixtureLoc struct {
	loc  Location
	base int32
}

// rankLocs returns n single-threaded ranks, each with its own sequence.
func rankLocs(n int) []fixtureLoc {
	locs := make([]fixtureLoc, n)
	for i := range locs {
		locs[i] = fixtureLoc{loc: Location{Rank: int32(i)}, base: int32(i)}
	}
	return locs
}

// buildBuffers creates one deterministic buffer per fixture location.
func buildBuffers(locs []fixtureLoc, events int) []*Buffer {
	bufs := make([]*Buffer, len(locs))
	for i, l := range locs {
		bufs[i] = NewBuffer(l.loc)
		fillBuffer(bufs[i], l.base, events)
	}
	return bufs
}

// buildSpool records the same events into a chunk spool at path, spilling
// every spillEvents events.
func buildSpool(t *testing.T, path string, locs []fixtureLoc, events, spillEvents int) {
	t.Helper()
	w, err := NewChunkWriter(path, spillEvents)
	if err != nil {
		t.Fatalf("NewChunkWriter: %v", err)
	}
	recordSpool(t, w, locs, events)
}

// recordSpool records the fixture events into w location by location and
// closes it.
func recordSpool(t *testing.T, w *ChunkWriter, locs []fixtureLoc, events int) {
	t.Helper()
	for _, l := range locs {
		b := NewBuffer(l.loc)
		w.Attach(b)
		fillBuffer(b, l.base, events)
		if err := w.Finish(b); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		b.Release()
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// drainStream collects every event of st together with its resolved
// region/path strings.
type streamedEvent struct {
	ev     Event
	region string
	path   string
}

func drainStream(t *testing.T, st *Stream) []streamedEvent {
	t.Helper()
	var out []streamedEvent
	for {
		ev, err := st.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if ev == nil {
			return out
		}
		se := streamedEvent{ev: *ev, path: st.PathString(ev.Path)}
		if ev.Kind == KindEnter || ev.Kind == KindExit {
			se.region = st.RegionName(ev.Region)
		}
		out = append(out, se)
	}
}

// compareToTrace checks that the streamed sequence equals the merged trace
// event for event.  Global region/path ids may legitimately differ between
// the two paths (interning order differs); names and rendered paths must
// not.
func compareToTrace(t *testing.T, want *Trace, got []streamedEvent) {
	t.Helper()
	if len(got) != len(want.Events) {
		t.Fatalf("streamed %d events, merged trace has %d", len(got), len(want.Events))
	}
	for i := range got {
		w, g := want.Events[i], got[i].ev
		gotRegion, gotPath := got[i].region, got[i].path
		wantRegion := ""
		if w.Kind == KindEnter || w.Kind == KindExit {
			wantRegion = want.RegionName(w.Region)
		}
		wantPath := want.PathString(w.Path)
		// Blank out the table ids before struct comparison.
		w.Region, g.Region = 0, 0
		w.Path, g.Path = 0, 0
		if w != g {
			t.Fatalf("event %d: streamed %+v, want %+v", i, g, w)
		}
		if gotRegion != wantRegion {
			t.Fatalf("event %d: region %q, want %q", i, gotRegion, wantRegion)
		}
		if gotPath != wantPath {
			t.Fatalf("event %d: path %q, want %q", i, gotPath, wantPath)
		}
	}
}

func TestChunkStreamMatchesMerge(t *testing.T) {
	for _, spill := range []int{1, 4, 7, 1000} {
		t.Run(fmt.Sprintf("spill=%d", spill), func(t *testing.T) {
			checkStreamMatchesMerge(t, rankLocs(5), spill)
		})
	}
}

// TestChunkStreamTiesMatchesMerge has three threads of rank 1 plus ranks 0
// and 3 record one sequence, listed out of location order so Merge's
// argument order differs from the stream's location-sorted sources.
func TestChunkStreamTiesMatchesMerge(t *testing.T) {
	locs := []fixtureLoc{
		{Location{Rank: 1, Thread: 2}, 0}, {Location{Rank: 3}, 0}, {Location{Rank: 1}, 0},
		{Location{Rank: 2}, 2}, {Location{Rank: 0}, 0}, {Location{Rank: 1, Thread: 1}, 0},
	}
	for _, spill := range []int{1, 4, 7, 1000} {
		t.Run(fmt.Sprintf("spill=%d", spill), func(t *testing.T) {
			checkStreamMatchesMerge(t, locs, spill)
		})
	}
}

// checkStreamMatchesMerge spools locs with the given spill size and checks
// that streaming the spool yields what Merge yields on the same buffers.
func checkStreamMatchesMerge(t *testing.T, locs []fixtureLoc, spill int) {
	t.Helper()
	const events = 13
	path := filepath.Join(t.TempDir(), "run.atsc")
	buildSpool(t, path, locs, events, spill)

	bufs := buildBuffers(locs, events)
	want := Merge(bufs...)

	r, err := OpenChunkFile(path)
	if err != nil {
		t.Fatalf("OpenChunkFile: %v", err)
	}
	if got := r.Events(); got != len(want.Events) {
		t.Fatalf("index events = %d, want %d", got, len(want.Events))
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	defer st.Close()
	got := drainStream(t, st)
	compareToTrace(t, want, got)

	if st.Events() != len(want.Events) {
		t.Errorf("Stream.Events = %d, want %d", st.Events(), len(want.Events))
	}
	if st.Duration() != want.Duration() {
		t.Errorf("Stream.Duration = %v, want %v", st.Duration(), want.Duration())
	}
	gr, gt := st.Shape()
	wr, wt := want.Shape()
	if gr != wr || gt != wt {
		t.Errorf("Stream.Shape = (%d,%d), want (%d,%d)", gr, gt, wr, wt)
	}
	if len(st.Locations()) != len(want.Locations) {
		t.Errorf("Stream.Locations = %v, want %v", st.Locations(), want.Locations)
	}
}

func TestBufferStreamMatchesMerge(t *testing.T) {
	want := Merge(buildBuffers(rankLocs(4), 9)...)
	st, err := NewBufferStream(buildBuffers(rankLocs(4), 9)...)
	if err != nil {
		t.Fatalf("NewBufferStream: %v", err)
	}
	compareToTrace(t, want, drainStream(t, st))
}

// TestBufferSpillKeepsTables verifies that spilling clears only the event
// slab: the intern tables (and therefore StackNames for OMP forks) survive.
func TestBufferSpillKeepsTables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.atsc")
	w, err := NewChunkWriter(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(Location{Rank: 0, Thread: 0})
	w.Attach(b)
	b.Enter("outer", 0.1) // spill threshold 2 triggers inside Enter/Exit
	b.Enter("inner", 0.2)
	if got := b.Len(); got >= 2 {
		t.Fatalf("buffer holds %d events; expected spill to have drained it", got)
	}
	if got := strings.Join(b.StackNames(), "/"); got != "outer/inner" {
		t.Fatalf("StackNames after spill = %q", got)
	}
	b.Exit(0.3)
	b.Exit(0.4)
	if err := w.Finish(b); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	evs := drainStream(t, st)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[1].path != "outer/inner" {
		t.Fatalf("inner enter path = %q", evs[1].path)
	}
}

// TestChunkWriterAtomic verifies the temp+rename contract: nothing lands
// at the target path before Close, and Abort leaves nothing behind.
func TestChunkWriterAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.atsc")
	w, err := NewChunkWriter(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer(Location{})
	w.Attach(b)
	fillBuffer(b, 0, 8)
	if err := w.Finish(b); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("spool visible at target path before Close (err=%v)", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spool missing after Close: %v", err)
	}

	w2, err := NewChunkWriter(filepath.Join(dir, "aborted.atsc"), 4)
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBuffer(Location{})
	w2.Attach(b2)
	fillBuffer(b2, 0, 8)
	w2.Abort()
	if err := w2.Finish(b2); err == nil {
		t.Fatal("Finish after Abort: expected error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "run.atsc" {
			t.Fatalf("leftover file %q after Abort", e.Name())
		}
	}
}

func TestChunkWriterDuplicateLocation(t *testing.T) {
	w, err := NewChunkWriter(filepath.Join(t.TempDir(), "run.atsc"), 4)
	if err != nil {
		t.Fatal(err)
	}
	a := NewBuffer(Location{Rank: 1})
	b := NewBuffer(Location{Rank: 1})
	w.Attach(a)
	w.Attach(b)
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "duplicate stream") {
		t.Fatalf("Close error = %v, want duplicate stream", err)
	}
}

func TestChunkWriterUnfinishedStream(t *testing.T) {
	w, err := NewChunkWriter(filepath.Join(t.TempDir(), "run.atsc"), 4)
	if err != nil {
		t.Fatal(err)
	}
	w.Attach(NewBuffer(Location{Rank: 3}))
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "unfinished stream") {
		t.Fatalf("Close error = %v, want unfinished stream", err)
	}
}

// corruptChunk is one corruption scenario: a mutation of a valid spool
// that must be rejected either at open or while draining the stream.
func TestChunkCorruption(t *testing.T) {
	valid := func(t *testing.T) []byte {
		path := filepath.Join(t.TempDir(), "run.atsc")
		buildSpool(t, path, rankLocs(2), 6, 4)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	// Hand-assembled spool whose index claims an absurd event count — the
	// chunk-format sibling of testdata/corrupt-hugecount.ats: it must be
	// rejected by the count-vs-size check, not by attempting to allocate.
	hugeCount := func(t *testing.T) []byte {
		var buf bytes.Buffer
		buf.Write(chunkMagic[:])
		buf.WriteByte(chunkVersion)
		buf.WriteByte(chunkTagEnd)
		indexOff := buf.Len()
		writeUvarint(&buf, 1)             // one stream
		writeVarint(&buf, 0)              // rank
		writeVarint(&buf, 0)              // thread
		writeUvarint(&buf, uint64(1)<<60) // events: implausible
		writeUvarint(&buf, 0)             // no frames
		var tail [chunkTrailerLen]byte
		binary.LittleEndian.PutUint64(tail[:8], uint64(indexOff))
		copy(tail[8:], chunkTrailerMagic[:])
		buf.Write(tail[:])
		return buf.Bytes()
	}

	cases := []struct {
		name   string
		mutate func(t *testing.T) []byte
	}{
		{"bad-magic", func(t *testing.T) []byte {
			b := valid(t)
			b[0] = 'X'
			return b
		}},
		{"bad-version", func(t *testing.T) []byte {
			b := valid(t)
			b[4] = 99
			return b
		}},
		{"bad-trailer-magic", func(t *testing.T) []byte {
			b := valid(t)
			b[len(b)-1] = 'Z'
			return b
		}},
		{"truncated", func(t *testing.T) []byte {
			b := valid(t)
			return b[:len(b)/2]
		}},
		{"too-short", func(t *testing.T) []byte {
			return []byte("ATSC")
		}},
		{"index-offset-beyond-file", func(t *testing.T) []byte {
			b := valid(t)
			binary.LittleEndian.PutUint64(b[len(b)-12:len(b)-4], uint64(len(b)))
			return b
		}},
		{"index-offset-into-header", func(t *testing.T) []byte {
			b := valid(t)
			binary.LittleEndian.PutUint64(b[len(b)-12:len(b)-4], 2)
			return b
		}},
		{"index-offset-misaligned", func(t *testing.T) []byte {
			// Points mid-frame: whatever parses must fail validation.
			b := valid(t)
			binary.LittleEndian.PutUint64(b[len(b)-12:len(b)-4], chunkHeaderLen+2)
			return b
		}},
		{"frame-garbage", func(t *testing.T) []byte {
			// Zero the first frame's body: the location varints and
			// counts no longer match the stream.
			b := valid(t)
			for i := chunkHeaderLen + 2; i < chunkHeaderLen+12; i++ {
				b[i] = 0xFF
			}
			return b
		}},
		{"huge-event-count", hugeCount},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "corrupt.atsc")
			if err := os.WriteFile(path, tc.mutate(t), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenChunkFile(path)
			if err != nil {
				return // rejected at open: good
			}
			defer r.Close()
			st, err := NewStream(r)
			if err != nil {
				return // rejected while priming: good
			}
			for {
				ev, err := st.Next()
				if err != nil {
					return // rejected while draining: good
				}
				if ev == nil {
					t.Fatal("corrupt spool drained without error")
				}
			}
		})
	}
}

// TestChunkEmptyStreams: locations that never record events still appear
// in the stream's location set (they shape the grid), with no events.
func TestChunkEmptyStreams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.atsc")
	w, err := NewChunkWriter(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	idle := NewBuffer(Location{Rank: 0})
	busy := NewBuffer(Location{Rank: 1})
	w.Attach(idle)
	w.Attach(busy)
	fillBuffer(busy, 1, 3)
	if err := w.Finish(idle); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(busy); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(r)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := len(st.Locations()); got != 2 {
		t.Fatalf("locations = %d, want 2", got)
	}
	evs := drainStream(t, st)
	for _, se := range evs {
		if se.ev.Loc.Rank != 1 {
			t.Fatalf("event from idle location: %+v", se.ev)
		}
	}
	if ranks, _ := st.Shape(); ranks != 2 {
		t.Fatalf("Shape ranks = %d, want 2", ranks)
	}
}
