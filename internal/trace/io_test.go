package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// enc builds a trace header byte by byte for corruption tests.
type enc struct{ bytes.Buffer }

func (e *enc) uvarint(v uint64) { writeUvarint(&e.Buffer, v) }

func (e *enc) varint(v int64) { writeVarint(&e.Buffer, v) }

// writeUvarint and writeVarint append one varint to buf; corruption
// fixtures use them to hand-assemble encodings.
func writeUvarint(buf *bytes.Buffer, v uint64) { buf.Write(binary.AppendUvarint(nil, v)) }

func writeVarint(buf *bytes.Buffer, v int64) { buf.Write(binary.AppendVarint(nil, v)) }

func header() *enc {
	e := &enc{}
	e.Write(magic[:])
	return e
}

// Corrupt and truncated inputs must fail fast with a diagnostic, never
// with a speculative multi-gigabyte allocation driven by an untrusted
// header count.
func TestReadRejectsCorruptCounts(t *testing.T) {
	cases := []struct {
		name string
		blob func() []byte
		want string // error substring
	}{
		{"huge event count", func() []byte {
			e := header()
			e.uvarint(0)       // regions
			e.uvarint(1)       // paths (root only)
			e.uvarint(0)       // locations
			e.uvarint(1 << 60) // events
			return e.Bytes()
		}, "implausible event count"},
		{"huge region count", func() []byte {
			e := header()
			e.uvarint(1 << 61)
			return e.Bytes()
		}, "implausible region count"},
		{"huge path count", func() []byte {
			e := header()
			e.uvarint(0)
			e.uvarint(1 << 59)
			return e.Bytes()
		}, "implausible path count"},
		{"huge location count", func() []byte {
			e := header()
			e.uvarint(0)
			e.uvarint(1)
			e.uvarint(1 << 62)
			return e.Bytes()
		}, "implausible location count"},
		{"location rank out of int32 range", func() []byte {
			e := header()
			e.uvarint(0)
			e.uvarint(1)
			e.uvarint(1)      // one location
			e.varint(1 << 40) // rank far beyond int32
			e.varint(0)       // thread
			e.uvarint(0)      // events
			return e.Bytes()
		}, "rank 1099511627776 out of range"},
		{"location thread out of int32 range", func() []byte {
			e := header()
			e.uvarint(0)
			e.uvarint(1)
			e.uvarint(1)
			e.varint(0)
			e.varint(-(1 << 40))
			e.uvarint(0)
			return e.Bytes()
		}, "thread -1099511627776 out of range"},
		{"missing path root", func() []byte {
			e := header()
			e.uvarint(0)
			e.uvarint(0)
			return e.Bytes()
		}, "missing path root"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(bytes.NewReader(tc.blob()))
			if err == nil {
				t.Fatalf("corrupt input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A count that passes the plausibility bound but overstates the available
// data must still fail on the short read, without allocating for the full
// claim (append growth stops at end of input).
func TestReadTruncatedBody(t *testing.T) {
	e := header()
	e.uvarint(0)
	e.uvarint(1)
	e.uvarint(0)
	e.uvarint(1 << 30) // plausible only because the reader can't see a size
	// No event bytes follow.
	if _, err := Read(bareReader{bytes.NewReader(e.Bytes())}); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// bareReader hides Len/Seek so Read cannot learn the input size and must
// rely on incremental growth.
type bareReader struct{ r *bytes.Reader }

func (b bareReader) Read(p []byte) (int, error) { return b.r.Read(p) }

// The committed fixture is the reproducer from the wild: a ~16-byte file
// whose header claims 2^60 events.
func TestReadFileCorruptFixture(t *testing.T) {
	_, err := ReadFile(filepath.Join("testdata", "corrupt-hugecount.ats"))
	if err == nil {
		t.Fatal("corrupt fixture accepted")
	}
	if !strings.Contains(err.Error(), "implausible event count") {
		t.Fatalf("error %q does not mention the implausible count", err)
	}
}

// WriteFile must be atomic: a failed write leaves neither a partial file
// at the target path nor temp-file litter.
func TestWriteFileAtomic(t *testing.T) {
	b := NewBuffer(loc(0, 0))
	b.Enter("x", 0)
	b.Exit(1)
	tr := Merge(b)

	dir := t.TempDir()
	path := filepath.Join(dir, "out.ats")

	// Failure injection: the rename target is an occupied directory, so
	// the final step fails after a complete write.
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "occupant"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteFile(path); err == nil {
		t.Fatal("rename onto non-empty directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp litter left behind: %v", ents)
	}

	// Success path still lands the complete file.
	ok := filepath.Join(dir, "ok.ats")
	if err := tr.WriteFile(ok); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(ok)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 2 {
		t.Fatalf("got %d events", len(got.Events))
	}
}
