package trace

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"
)

// Per-layer benchmarks of the trace codec: spooling a run into ATSC
// frames, streaming it back through the k-way merge, and the ATS1
// Write/Read round trip.  Each reports events/s next to the allocation
// counts, so a codec change shows up in both.

const (
	benchLocations = 16
	benchSteps     = 512
	benchEvents    = benchLocations * (4*benchSteps + 2) // 4 per step, plus main's enter/exit
)

var benchRegions = []string{"compute", "exchange", "reduce", "io"}

// recordBench records a fixed message-passing loop into b.
func recordBench(b *Buffer) {
	rank := b.Loc.Rank
	b.Enter("main", 0)
	for i := 0; i < benchSteps; i++ {
		t := float64(i) * 1e-3
		b.Enter(benchRegions[i%len(benchRegions)], t)
		b.Record(Event{Time: t + 1e-4, Kind: KindSend, Peer: (rank + 1) % benchLocations,
			CRank: rank, Tag: 3, Bytes: 4096, Match: uint64(rank)<<32 | uint64(i)})
		b.Record(Event{Time: t + 3e-4, Aux: t + 2e-4, Kind: KindColl, Coll: CollAllreduce,
			CRank: rank, Root: -1, Bytes: 64, Match: uint64(i)})
		b.Exit(t + 5e-4)
	}
	b.Exit(1)
}

// writeBenchSpool records the benchmark program into an ATSC spool at path.
func writeBenchSpool(tb testing.TB, path string) {
	w, err := NewChunkWriter(path, DefaultSpillEvents)
	if err != nil {
		tb.Fatal(err)
	}
	for r := 0; r < benchLocations; r++ {
		buf := NewBuffer(Location{Rank: int32(r)})
		w.Attach(buf)
		recordBench(buf)
		if err := w.Finish(buf); err != nil {
			tb.Fatal(err)
		}
		buf.Release()
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}

func reportEventRate(b *testing.B, start time.Time) {
	b.ReportMetric(float64(benchEvents*b.N)/time.Since(start).Seconds(), "events/s")
}

// BenchmarkChunkSpill measures recording a run into a chunk spool: frame
// encoding, the buffered file writes and the index on Close.
func BenchmarkChunkSpill(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.atsc")
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		writeBenchSpool(b, path)
	}
	reportEventRate(b, start)
}

// BenchmarkChunkStreamDecode measures opening a spool and draining its
// merged event stream: index validation, frame decoding and the k-way
// merge with global re-interning.
func BenchmarkChunkStreamDecode(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.atsc")
	writeBenchSpool(b, path)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r, err := OpenChunkFile(path)
		if err != nil {
			b.Fatal(err)
		}
		st, err := NewStream(r)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			ev, err := st.Next()
			if err != nil {
				b.Fatal(err)
			}
			if ev == nil {
				break
			}
			n++
		}
		st.Close()
		if n != benchEvents {
			b.Fatalf("drained %d events, want %d", n, benchEvents)
		}
	}
	reportEventRate(b, start)
}

// BenchmarkTraceWriteRead measures the ATS1 round trip of a merged trace:
// Write into memory, then Read it back.
func BenchmarkTraceWriteRead(b *testing.B) {
	bufs := make([]*Buffer, benchLocations)
	for r := range bufs {
		bufs[r] = NewBuffer(Location{Rank: int32(r)})
		recordBench(bufs[r])
	}
	tr := Merge(bufs...)
	var enc bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		enc.Reset()
		if _, err := tr.Write(&enc); err != nil {
			b.Fatal(err)
		}
		got, err := Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Events) != len(tr.Events) {
			b.Fatalf("read %d events, want %d", len(got.Events), len(tr.Events))
		}
	}
	reportEventRate(b, start)
}
