package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// goldenLocations are the executors of the golden program: three ranks
// plus one worker thread of rank 1.
var goldenLocations = []Location{{Rank: 0}, {Rank: 1}, {Rank: 1, Thread: 1}, {Rank: 2}}

// recordGolden records a fixed small program into bufs (one per entry of
// goldenLocations).  Recording round-robins across the locations, so a
// small spill size interleaves their frames in a spool.  The events cover
// every encoded field, including negative, zero and 64-bit-wide values.
func recordGolden(bufs []*Buffer) {
	bufs[2].Seed([]string{"main", "omp parallel"})
	for _, b := range bufs {
		if b.Loc.Thread == 0 {
			b.Enter("main", 0)
		}
	}
	for step := 0; step < 5; step++ {
		for i, b := range bufs {
			t := 0.01*float64(step+1) + 0.0001*float64(i)
			rank := b.Loc.Rank
			b.Enter([]string{"compute", "exchange", "reduce"}[(step+i)%3], t)
			b.Record(Event{Time: t + 0.001, Aux: 0.25 * float64(step), Kind: KindLock})
			b.Record(Event{Time: t + 0.002, Kind: KindSend, Peer: (rank + 1) % 3, CRank: rank,
				Tag: int32(step) - 2, Bytes: int64(1) << (8 * step), Match: uint64(1)<<63 | uint64(step),
				Comm: 1, Flags: FlagSync})
			b.Record(Event{Time: t + 0.003, Aux: t + 0.0025, Kind: KindRecv, Peer: (rank + 2) % 3,
				CRank: rank, Tag: -7, Bytes: 300, Match: uint64(step)*7 + 1})
			b.Record(Event{Time: t + 0.004, Aux: -0.5, Kind: KindColl, Coll: CollReduce,
				CRank: rank, Root: -1, Bytes: 8, Comm: int32(step % 2), Match: uint64(step)})
			b.Exit(t + 0.005)
		}
	}
	for _, b := range bufs {
		if b.Loc.Thread == 0 {
			b.Exit(1)
		}
	}
}

func goldenBuffers() []*Buffer {
	bufs := make([]*Buffer, len(goldenLocations))
	for i, l := range goldenLocations {
		bufs[i] = NewBuffer(l)
	}
	return bufs
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenEncodingBytes pins the exact bytes of both formats for the
// golden program: a chunk spool with multi-frame streams, the merged ATS1
// trace, and that trace after a Read/Write round trip.  Any change to an
// encoder or to the order in which it emits fields moves these hashes;
// they may only change together with a format version bump.
func TestGoldenEncodingBytes(t *testing.T) {
	const (
		wantATSC = "76c72b7ce492b4143b002939296be4f09e80900a638e009bb9fa49896808b428"
		wantATS1 = "5ba7a1600959db8449005b944c710114b3a79f63cb6396db5e405fa45f7635a7"
	)

	path := filepath.Join(t.TempDir(), "golden.atsc")
	w, err := NewChunkWriter(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	spooled := goldenBuffers()
	for _, b := range spooled {
		w.Attach(b)
	}
	recordGolden(spooled)
	for _, b := range spooled {
		if err := w.Finish(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	atsc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenChunkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.streams {
		if len(s.frames) < 2 {
			t.Errorf("stream %v has %d frames; the golden spool must be multi-frame", s.loc, len(s.frames))
		}
	}
	r.Close()
	if got := sha256Hex(atsc); got != wantATSC {
		t.Errorf("ATSC sha256 = %s, want %s", got, wantATSC)
	}

	bufs := goldenBuffers()
	recordGolden(bufs)
	var ats1 bytes.Buffer
	n, err := Merge(bufs...).Write(&ats1)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(ats1.Len()) {
		t.Errorf("Write reported %d bytes, wrote %d", n, ats1.Len())
	}
	if got := sha256Hex(ats1.Bytes()); got != wantATS1 {
		t.Errorf("ATS1 sha256 = %s, want %s", got, wantATS1)
	}

	back, err := Read(bytes.NewReader(ats1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := back.Write(&again); err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(again.Bytes()); got != wantATS1 {
		t.Errorf("ATS1 Read/Write round trip sha256 = %s, want %s", got, wantATS1)
	}
}
