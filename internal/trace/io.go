package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Binary trace format ("ATS1"):
//
//	magic            [4]byte  "ATS1"
//	regionCount      uvarint
//	regions          regionCount × (uvarint len, bytes)
//	pathCount        uvarint  (including the root node)
//	paths            (pathCount-1) × (uvarint parent, uvarint region)
//	locationCount    uvarint
//	locations        locationCount × (varint rank, varint thread)
//	eventCount       uvarint
//	events           eventCount × fixed encoding (see appendEvent)
//
// All multi-byte integers are varint-encoded; floats are IEEE-754 bits in
// little-endian order.  The format is self-contained: a trace written by
// cmd binaries can be re-read by cmd/atsanalyze and cmd/atstrace.
// doc/FORMATS.md is the normative spec of this encoding and of the ATSC
// chunk-spool variant (see chunk.go).

var magic = [4]byte{'A', 'T', 'S', '1'}

const (
	// eventHeadBytes is the fixed-width head of an event encoding: two
	// floats and three single bytes.
	eventHeadBytes = 8 + 8 + 3
	// maxEventBytes is the longest event encoding: the head and eleven
	// varints of at most MaxVarintLen64 bytes.
	maxEventBytes = eventHeadBytes + 11*binary.MaxVarintLen64
	// maxStringLen caps an encoded string (region name).
	maxStringLen = 1 << 20
	// writeChunk is how much encoded output Trace.Write gathers per
	// underlying Write call.
	writeChunk = 1 << 16
)

// appendEvent appends the encoding of ev (doc/FORMATS.md §1.1) to dst.
func appendEvent(dst []byte, ev *Event) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.Time))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(ev.Aux))
	dst = append(dst, byte(ev.Kind), byte(ev.Coll), ev.Flags)
	dst = appendLocation(dst, ev.Loc)
	dst = binary.AppendVarint(dst, int64(ev.Region))
	dst = binary.AppendVarint(dst, int64(ev.Path))
	dst = binary.AppendVarint(dst, int64(ev.Peer))
	dst = binary.AppendVarint(dst, int64(ev.CRank))
	dst = binary.AppendVarint(dst, int64(ev.Tag))
	dst = binary.AppendVarint(dst, ev.Bytes)
	dst = binary.AppendVarint(dst, int64(ev.Root))
	dst = binary.AppendVarint(dst, int64(ev.Comm))
	return binary.AppendUvarint(dst, ev.Match)
}

// appendLocation appends a location as (varint rank, varint thread).
func appendLocation(dst []byte, l Location) []byte {
	return binary.AppendVarint(binary.AppendVarint(dst, int64(l.Rank)), int64(l.Thread))
}

// appendStrings appends a counted string table: uvarint count, then each
// string as uvarint length and bytes.
func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// appendPaths appends path-table entries as (uvarint parent, uvarint
// region) pairs.  The count is the caller's: ATS1 counts the implicit
// root, a chunk frame counts only its new entries.
func appendPaths(dst []byte, parent []PathID, region []RegionID) []byte {
	for i := range parent {
		dst = binary.AppendUvarint(dst, uint64(parent[i]))
		dst = binary.AppendUvarint(dst, uint64(region[i]))
	}
	return dst
}

// Write serializes the trace to w.  It returns the number of bytes written.
func (t *Trace) Write(w io.Writer) (int64, error) {
	buf := append(make([]byte, 0, writeChunk+maxEventBytes), magic[:]...)
	buf = appendStrings(buf, t.Regions)
	buf = binary.AppendUvarint(buf, uint64(len(t.PathParent)))
	if len(t.PathParent) > 0 {
		buf = appendPaths(buf, t.PathParent[1:], t.PathRegion[1:])
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Locations)))
	for _, l := range t.Locations {
		buf = appendLocation(buf, l)
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Events)))
	var written int64
	for i := range t.Events {
		if len(buf) >= writeChunk {
			n, err := w.Write(buf)
			written += int64(n)
			if err != nil {
				return written, err
			}
			buf = buf[:0]
		}
		buf = appendEvent(buf, &t.Events[i])
	}
	n, err := w.Write(buf)
	return written + int64(n), err
}

// WriteFile serializes the trace to the named file.  The write is atomic:
// the trace lands in a temporary file in the same directory and is renamed
// into place only after a successful close, so a crash or write error never
// leaves a truncated trace at path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := t.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

var (
	errVarintOverflow = errors.New("trace: varint overflows a 64-bit integer")
	errVarintOverlong = errors.New("trace: varint is not minimally encoded")
)

// decoder is a cursor over encoded bytes.  Errors are sticky: after the
// first failure every read returns zero and off stays put, so a caller
// decodes a whole record and checks err once.  Truncation is
// io.ErrUnexpectedEOF.  Varints must be minimally encoded, as every
// encoder here writes them, so any input that decodes re-encodes to the
// same bytes.
type decoder struct {
	buf []byte
	off int
	err error
}

// fail records err and cuts buf at off, so later reads fall through to
// the slow paths, which see err.
func (d *decoder) fail(err error) {
	d.err = err
	d.buf = d.buf[:d.off]
}

// uvarint decodes one-byte varints, nearly all of a trace's, on a short
// path and leaves the rest to uvarintSlow.
func (d *decoder) uvarint() uint64 {
	if d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	return d.uvarintSlow()
}

func (d *decoder) uvarintSlow() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n == 0:
		d.fail(io.ErrUnexpectedEOF)
	case n < 0:
		d.fail(errVarintOverflow)
	case d.buf[d.off+n-1] == 0:
		d.fail(errVarintOverlong)
	default:
		d.off += n
		return v
	}
	return 0
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.Varint
}

func (d *decoder) string() string {
	n := d.uvarint()
	switch {
	case d.err != nil:
		return ""
	case n > maxStringLen:
		d.fail(fmt.Errorf("trace: implausible string length %d", n))
		return ""
	case n > uint64(len(d.buf)-d.off):
		d.fail(io.ErrUnexpectedEOF)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// decodeEvent decodes one event in the appendEvent encoding from the front
// of buf and returns its encoded length.  It is shared by the ATS1 reader
// and the ATSC frame parser; callers validate the decoded ids against
// their own tables.
func decodeEvent(buf []byte, ev *Event) (int, error) {
	if len(buf) < eventHeadBytes {
		return 0, io.ErrUnexpectedEOF
	}
	ev.Time = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	ev.Aux = math.Float64frombits(binary.LittleEndian.Uint64(buf[8:]))
	ev.Kind, ev.Coll, ev.Flags = Kind(buf[16]), CollKind(buf[17]), buf[18]
	d := decoder{buf: buf, off: eventHeadBytes}
	var ints [10]int64
	for j := range ints {
		ints[j] = d.varint()
	}
	ev.Match = d.uvarint()
	if d.err != nil {
		return d.off, d.err
	}
	for j, v := range ints {
		if j != 7 && v != int64(int32(v)) { // ints[7] is Bytes, the one 64-bit field
			return d.off, fmt.Errorf("trace: event field %d: %d out of int32 range", j, v)
		}
	}
	ev.Loc = Location{Rank: int32(ints[0]), Thread: int32(ints[1])}
	ev.Region = RegionID(ints[2])
	ev.Path = PathID(ints[3])
	ev.Peer, ev.CRank, ev.Tag = int32(ints[4]), int32(ints[5]), int32(ints[6])
	ev.Bytes = ints[7]
	ev.Root, ev.Comm = int32(ints[8]), int32(ints[9])
	return d.off, nil
}

// peekDecode runs decode over the next (at most max) bytes of br, in place
// in br's buffer, and then consumes exactly the bytes decode reports.  A
// short window only means end of input unless br reported a read error.
func peekDecode(br *bufio.Reader, max int, decode func([]byte) (int, error)) error {
	buf, perr := br.Peek(max)
	n, err := decode(buf)
	if err != nil {
		if err == io.ErrUnexpectedEOF && perr != nil && perr != io.EOF {
			return perr
		}
		return err
	}
	_, err = br.Discard(n) // cannot fail: the n bytes are buffered
	return err
}

// readUvarint reads one uvarint from br.
func readUvarint(br *bufio.Reader) (v uint64, err error) {
	err = peekDecode(br, binary.MaxVarintLen64, func(b []byte) (int, error) {
		d := decoder{buf: b}
		v = d.uvarint()
		return d.off, d.err
	})
	return v, err
}

// Minimum encoded size of one element of each variable-length section,
// used to bound untrusted header counts against the input size: an input
// of S bytes cannot hold more than S/min elements, so a count above that
// is corrupt and must not drive a speculative allocation.
const (
	minRegionBytes   = 1  // uvarint length (zero-length string)
	minPathBytes     = 2  // uvarint parent + uvarint region
	minLocationBytes = 2  // varint rank + varint thread
	minEventBytes    = 30 // 2 floats + 3 fixed bytes + 10 varints + 1 uvarint
)

// checkCount validates an untrusted element count against the remaining
// input size (size < 0 when unknown).  Even with an unknown size the count
// is bounded so a corrupt header cannot request an implausible allocation;
// the section readers additionally grow their slices incrementally, so the
// transient allocation stays proportional to the bytes actually present.
func checkCount(n uint64, minBytes, size int64, what string) error {
	if size >= 0 && n > uint64(size)/uint64(minBytes) {
		return fmt.Errorf("trace: implausible %s count %d for %d-byte input", what, n, size)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("trace: implausible %s count %d", what, n)
	}
	return nil
}

// sliceCap bounds the initial capacity reserved for n announced elements.
// When the input size is unknown the count can still lie about how much
// data follows, so growth past the cap is left to append, which stops at
// the actual end of input.
func sliceCap(n uint64) int {
	const chunk = 1 << 16
	if n > chunk {
		return chunk
	}
	return int(n)
}

// inputSize reports how many bytes remain in r, or -1 if unknowable
// without consuming the stream.
func inputSize(r io.Reader) int64 {
	switch v := r.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		return int64(v.Len())
	case io.Seeker: // *os.File and friends
		cur, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := v.Seek(0, io.SeekEnd)
		if err != nil {
			return -1
		}
		if _, err := v.Seek(cur, io.SeekStart); err != nil {
			return -1
		}
		return end - cur
	}
	return -1
}

// Read deserializes a trace written by Write.  Counts in the header are
// untrusted: each is checked for plausibility against the input size (when
// the reader can report one) before any allocation, so a corrupt or
// malicious header claiming, say, 2^60 events fails fast instead of
// attempting a multi-gigabyte allocation.
func Read(r io.Reader) (*Trace, error) {
	return ReadLimited(r, Limits{})
}

// ReadLimited is Read with additional policy caps for untrusted network
// ingest (see Limits); the zero Limits is exactly Read.
func ReadLimited(r io.Reader, lim Limits) (*Trace, error) {
	size := inputSize(r)
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m[:])
	}
	t := &Trace{}
	nRegions, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if err := checkCount(nRegions, minRegionBytes, size, "region"); err != nil {
		return nil, err
	}
	t.Regions = make([]string, 0, sliceCap(nRegions))
	for i := uint64(0); i < nRegions; i++ {
		n, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		if n > maxStringLen || (size >= 0 && n > uint64(size)) {
			return nil, fmt.Errorf("trace: implausible string length %d", n)
		}
		s := make([]byte, n)
		if _, err := io.ReadFull(br, s); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		t.Regions = append(t.Regions, string(s))
	}
	nPaths, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if nPaths == 0 {
		return nil, fmt.Errorf("trace: missing path root")
	}
	if err := checkCount(nPaths, minPathBytes, size, "path"); err != nil {
		return nil, err
	}
	t.PathParent = append(make([]PathID, 0, sliceCap(nPaths)), -1)
	t.PathRegion = append(make([]RegionID, 0, sliceCap(nPaths)), -1)
	for i := uint64(1); i < nPaths; i++ {
		var p, rg uint64
		if err := peekDecode(br, 2*binary.MaxVarintLen64, func(b []byte) (int, error) {
			d := decoder{buf: b}
			p, rg = d.uvarint(), d.uvarint()
			return d.off, d.err
		}); err != nil {
			return nil, err
		}
		if p >= i || rg >= nRegions {
			return nil, fmt.Errorf("trace: corrupt path table entry %d", i)
		}
		t.PathParent = append(t.PathParent, PathID(p))
		t.PathRegion = append(t.PathRegion, RegionID(rg))
	}
	nLocs, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if err := checkCount(nLocs, minLocationBytes, size, "location"); err != nil {
		return nil, err
	}
	if err := lim.checkLocations(nLocs); err != nil {
		return nil, err
	}
	t.Locations = make([]Location, 0, sliceCap(nLocs))
	for i := uint64(0); i < nLocs; i++ {
		var rank, thread int64
		if err := peekDecode(br, 2*binary.MaxVarintLen64, func(b []byte) (int, error) {
			d := decoder{buf: b}
			rank, thread = d.varint(), d.varint()
			return d.off, d.err
		}); err != nil {
			return nil, err
		}
		if rank < math.MinInt32 || rank > math.MaxInt32 {
			return nil, fmt.Errorf("trace: location %d: rank %d out of range", i, rank)
		}
		if thread < math.MinInt32 || thread > math.MaxInt32 {
			return nil, fmt.Errorf("trace: location %d: thread %d out of range", i, thread)
		}
		t.Locations = append(t.Locations, Location{Rank: int32(rank), Thread: int32(thread)})
	}
	nEvents, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if err := checkCount(nEvents, minEventBytes, size, "event"); err != nil {
		return nil, err
	}
	if err := lim.checkEvents(nEvents); err != nil {
		return nil, err
	}
	t.Events = make([]Event, 0, sliceCap(nEvents))
	for i := uint64(0); i < nEvents; i++ {
		t.Events = append(t.Events, Event{})
		ev := &t.Events[len(t.Events)-1]
		if err := peekDecode(br, maxEventBytes, func(b []byte) (int, error) {
			return decodeEvent(b, ev)
		}); err != nil {
			return nil, err
		}
		if int(ev.Path) >= len(t.PathParent) {
			return nil, fmt.Errorf("trace: event %d references unknown path %d", i, ev.Path)
		}
	}
	return t, nil
}

// ReadFile deserializes a trace from the named file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// jsonEvent is the export schema of WriteJSON.
type jsonEvent struct {
	Time  float64 `json:"t"`
	Aux   float64 `json:"aux,omitempty"`
	Kind  string  `json:"kind"`
	Loc   string  `json:"loc"`
	Path  string  `json:"path,omitempty"`
	Peer  int32   `json:"peer,omitempty"`
	Tag   int32   `json:"tag,omitempty"`
	Bytes int64   `json:"bytes,omitempty"`
	Match uint64  `json:"match,omitempty"`
	Coll  string  `json:"coll,omitempty"`
	Root  int32   `json:"root,omitempty"`
	Comm  int32   `json:"comm,omitempty"`
}

// WriteJSON exports the trace as JSON lines (one event per line) for
// consumption by external tooling.  The format is lossy in the direction
// of readability: region/path ids are resolved to strings.
func (t *Trace) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range t.Events {
		ev := &t.Events[i]
		je := jsonEvent{
			Time: ev.Time, Aux: ev.Aux, Kind: ev.Kind.String(),
			Loc: ev.Loc.String(), Path: t.PathString(ev.Path),
			Peer: ev.Peer, Tag: ev.Tag, Bytes: ev.Bytes, Match: ev.Match,
			Root: ev.Root, Comm: ev.Comm,
		}
		if ev.Coll != CollNone {
			je.Coll = ev.Coll.String()
		}
		if err := enc.Encode(&je); err != nil {
			return err
		}
	}
	return bw.Flush()
}
