package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Chunked trace spool format ("ATSC") — the serialized shape of a
// streaming run, in a file or in memory.  Where an ATS1 file is one fully
// merged trace, an ATSC spool is a multiplex of per-location chunk frames
// appended while the run executes, so no executor ever holds more than one
// chunk of events in memory.  A single spool carries every location (one
// file per rank would exhaust file-descriptor limits at large rank
// counts); an index footer lets readers walk each location's frames
// independently via ReadAt.
//
//	header   magic "ATSC", version byte (1)
//	frames   frame*
//	frame    tag 0x01, uvarint bodyLen, body
//	         tag 0x00 ends the frame section
//	body     varint rank, varint thread            (owning location)
//	         uvarint nNewRegions, nNewRegions × (uvarint len, bytes)
//	         uvarint nNewPaths,  nNewPaths × (uvarint parent, uvarint region)
//	         uvarint nEvents,    nEvents × event   (appendEvent encoding)
//	index    uvarint nStreams, nStreams × stream   (sorted rank-major)
//	stream   varint rank, varint thread, uvarint totalEvents,
//	         uvarint nFrames, nFrames × (uvarint bodyOff, uvarint bodyLen)
//	trailer  8-byte LE index offset, magic "ATSX"
//
// Region and path ids inside a frame are local to the owning location's
// buffer; each frame carries the delta of its intern tables since the
// previous frame, so a reader reconstructs the tables by applying frames
// in order (parents always precede children).  Every count is validated
// against the enclosing byte range before allocation, following the ATS1
// hardening rules.  doc/FORMATS.md is the normative spec.

var (
	chunkMagic        = [4]byte{'A', 'T', 'S', 'C'}
	chunkTrailerMagic = [4]byte{'A', 'T', 'S', 'X'}
)

const (
	chunkVersion    = 1
	chunkHeaderLen  = 5  // magic + version
	chunkTrailerLen = 12 // index offset + trailer magic
	chunkTagEnd     = 0x00
	chunkTagFrame   = 0x01
	// minFrameBodyBytes is the smallest legal frame body: two location
	// varints plus three zero counts.
	minFrameBodyBytes = 5
	// minStreamIndexBytes bounds the per-stream index entry size: two
	// location varints plus two counts.
	minStreamIndexBytes = 4
)

// DefaultSpillEvents is the per-location event count that triggers a chunk
// flush when a Buffer is attached to a Sink.  It bounds run-phase memory
// at roughly locations × DefaultSpillEvents events while keeping frames
// large enough that the table-delta and envelope overhead stays marginal.
const DefaultSpillEvents = 64

// Sink consumes per-location event buffers while a run executes, in place
// of materializing every event in memory.  The runtime attaches each
// buffer before its executor starts recording and finishes it exactly once
// after the executor has stopped; Attach and Finish may be called from
// different goroutines (one per executor) and must be safe to interleave.
//
// ChunkWriter is the canonical implementation.  Errors inside a sink are
// sticky: recording continues (events are dropped) and the first error is
// reported by Finish and by the writer's Close.
type Sink interface {
	// Attach registers b with the sink and arranges for its events to be
	// spilled as they accumulate.  Attaching two buffers with the same
	// location is an error (reported at Finish/Close).
	Attach(b *Buffer)
	// Finish flushes b's remaining events and intern-table deltas and
	// detaches it.  The buffer's executor must have stopped recording.
	Finish(b *Buffer) error
}

// chunkStream is the writer-side state of one location's frame sequence.
type chunkStream struct {
	regions  int // intern-table entries already written
	paths    int
	events   uint64
	frames   []frameRef
	finished bool
}

// frameRef locates one frame body inside the spool file.
type frameRef struct {
	off, len int64
}

// ChunkWriter spools per-location trace buffers into one ATSC spool.  It
// implements Sink.  All methods are safe for concurrent use; a mutex
// serializes frame appends to the destination.  NewChunkWriterTo encodes
// to any io.Writer; NewChunkWriter is the file-backed case, which, like
// the ATS1 writers, writes a temporary file and renames it into place on
// Close, so a crash never leaves a truncated spool at the target path.
type ChunkWriter struct {
	mu        sync.Mutex
	dst       io.Writer
	off       int64
	threshold int
	streams   map[Location]*chunkStream
	frame     []byte // encoding scratch, reused across frames
	err       error
	closed    bool

	// File-backed spools only (NewChunkWriter): dst buffers f, which is
	// renamed from tmp to path on a successful Close.
	bw        *bufio.Writer
	f         *os.File
	path, tmp string
}

// NewChunkWriterTo creates a spool that encodes to dst: the header now,
// one Write per frame while the run executes, and the index and trailer
// on Close.  The bytes are exactly those NewChunkWriter lands at its path.
// dst is written unbuffered; wrap a file in a bufio.Writer (and flush it
// after Close) to batch the writes.  spillEvents is the per-location event
// count that triggers a frame flush; values <= 0 select
// DefaultSpillEvents.
func NewChunkWriterTo(dst io.Writer, spillEvents int) *ChunkWriter {
	if spillEvents <= 0 {
		spillEvents = DefaultSpillEvents
	}
	w := &ChunkWriter{
		dst:       dst,
		off:       chunkHeaderLen,
		threshold: spillEvents,
		streams:   make(map[Location]*chunkStream),
	}
	w.frame = append(append(w.frame, chunkMagic[:]...), chunkVersion)
	w.write(w.frame)
	return w
}

// NewChunkWriter creates a spool that will land at path on Close.
// spillEvents is as for NewChunkWriterTo.
func NewChunkWriter(path string, spillEvents int) (*ChunkWriter, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	w := NewChunkWriterTo(bw, spillEvents)
	w.bw, w.f, w.path, w.tmp = bw, f, path, f.Name()
	return w, nil
}

// write sends p to the destination unless an error is already sticky.
func (w *ChunkWriter) write(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.dst.Write(p); err != nil {
		w.fail(err)
	}
}

// fail records the first error; later operations keep draining buffers so
// executors are never blocked by a broken spool.
func (w *ChunkWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Err returns the sticky error, if any.
func (w *ChunkWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Attach implements Sink.
func (w *ChunkWriter) Attach(b *Buffer) {
	if b == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		w.fail(fmt.Errorf("trace: chunk writer: Attach(%v) after Close", b.Loc))
		return
	}
	if _, dup := w.streams[b.Loc]; dup {
		w.fail(fmt.Errorf("trace: chunk writer: duplicate stream for location %v", b.Loc))
		return
	}
	w.streams[b.Loc] = &chunkStream{paths: 1} // the path root is implicit
	b.sink = w
	b.spillAt = w.threshold
	// The slab fills to exactly the threshold before every spill, so size
	// it once instead of letting each location regrow it by doubling.
	if cap(b.events) < w.threshold {
		b.events = append(make([]Event, 0, w.threshold), b.events...)
	}
}

// spill flushes b's pending events as one frame.  Called by the buffer's
// owning goroutine whenever the slab reaches the spill threshold.
func (w *ChunkWriter) spill(b *Buffer) {
	w.mu.Lock()
	w.spillLocked(b)
	w.mu.Unlock()
	// Always drop the events, even on a sticky error: the point of
	// streaming is bounding memory, and the run's result is discarded
	// anyway once Finish/Close report the error.
	b.events = b.events[:0]
}

func (w *ChunkWriter) spillLocked(b *Buffer) {
	s := w.streams[b.Loc]
	if s == nil || s.finished {
		w.fail(fmt.Errorf("trace: chunk writer: spill from unattached buffer %v", b.Loc))
		return
	}
	if w.err != nil || w.closed {
		return
	}
	nr := len(b.regions) - s.regions
	np := len(b.pathParent) - s.paths
	ne := len(b.events)
	if nr == 0 && np == 0 && ne == 0 {
		return
	}
	// The body is encoded after room for the longest envelope, which is
	// then filled in right-aligned so the frame goes out in one write.
	const maxEnvelope = 1 + binary.MaxVarintLen64
	buf := append(w.frame[:0], make([]byte, maxEnvelope)...)
	buf = appendFrame(buf, b.Loc, b.regions[s.regions:], b.pathParent[s.paths:], b.pathRegion[s.paths:], b.events)
	w.frame = buf
	body := len(buf) - maxEnvelope
	var env [maxEnvelope]byte
	env[0] = chunkTagFrame
	n := 1 + binary.PutUvarint(env[1:], uint64(body))
	start := maxEnvelope - n
	copy(buf[start:], env[:n])
	w.write(buf[start:])
	if w.err != nil {
		return
	}
	s.frames = append(s.frames, frameRef{off: w.off + int64(n), len: int64(body)})
	w.off += int64(n + body)
	s.regions += nr
	s.paths += np
	s.events += uint64(ne)
}

// appendFrame appends one frame body: the owning location, the intern-table
// deltas and the events.
func appendFrame(dst []byte, loc Location, regions []string, pathParent []PathID, pathRegion []RegionID, events []Event) []byte {
	dst = appendLocation(dst, loc)
	dst = appendStrings(dst, regions)
	dst = binary.AppendUvarint(dst, uint64(len(pathParent)))
	dst = appendPaths(dst, pathParent, pathRegion)
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	for i := range events {
		dst = appendEvent(dst, &events[i])
	}
	return dst
}

// Finish implements Sink: it flushes b's tail frame, marks the stream
// complete, and detaches the buffer.
func (w *ChunkWriter) Finish(b *Buffer) error {
	if b == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.streams[b.Loc]
	if s == nil {
		err := fmt.Errorf("trace: chunk writer: Finish on unattached buffer %v", b.Loc)
		w.fail(err)
		return err
	}
	if !s.finished {
		w.spillLocked(b)
		s.finished = true
	}
	b.events = b.events[:0]
	b.sink = nil
	b.spillAt = 0
	return w.err
}

// Close ends the frame section and writes the index and trailer.  Every
// attached buffer must have been finished.  A file-backed spool is then
// renamed into place; on error (including any sticky spill error) its
// temporary file is removed and nothing lands at the target path.
func (w *ChunkWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	for loc, s := range w.streams {
		if !s.finished {
			w.fail(fmt.Errorf("trace: chunk writer: Close with unfinished stream %v", loc))
			break
		}
	}
	if w.err == nil {
		w.writeIndex()
	}
	if w.err == nil && w.bw != nil {
		if err := w.bw.Flush(); err != nil {
			w.fail(err)
		}
	}
	if w.f == nil {
		return w.err
	}
	if err := w.f.Close(); err != nil {
		w.fail(err)
	}
	if w.err == nil {
		if err := os.Rename(w.tmp, w.path); err != nil {
			w.fail(err)
		}
	}
	if w.err != nil {
		os.Remove(w.tmp)
	}
	return w.err
}

// writeIndex ends the frame section and appends the index and trailer.
func (w *ChunkWriter) writeIndex() {
	indexOff := w.off + 1 // after the end tag
	locs := make([]Location, 0, len(w.streams))
	for loc := range w.streams {
		locs = append(locs, loc)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i].less(locs[j]) })
	idx := append(w.frame[:0], chunkTagEnd)
	idx = binary.AppendUvarint(idx, uint64(len(locs)))
	for _, loc := range locs {
		s := w.streams[loc]
		idx = appendLocation(idx, loc)
		idx = binary.AppendUvarint(idx, s.events)
		idx = binary.AppendUvarint(idx, uint64(len(s.frames)))
		for _, fr := range s.frames {
			idx = binary.AppendUvarint(idx, uint64(fr.off))
			idx = binary.AppendUvarint(idx, uint64(fr.len))
		}
	}
	idx = binary.LittleEndian.AppendUint64(idx, uint64(indexOff))
	idx = append(idx, chunkTrailerMagic[:]...)
	w.frame = idx
	w.write(idx)
}

// Abort discards the spool: a file-backed spool leaves nothing at the
// target path, and a writer-backed one writes nothing more to its
// destination.  Safe to call at any time (including after Close, where it
// is a no-op); buffers still attached keep draining into the void.
func (w *ChunkWriter) Abort() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	w.fail(errors.New("trace: chunk writer aborted"))
	if w.f != nil {
		w.f.Close()
		os.Remove(w.tmp)
	}
}

// chunkIndexEntry is the reader-side index of one location's frames.
type chunkIndexEntry struct {
	loc    Location
	events uint64
	frames []frameRef
}

// ChunkReader opens an ATSC spool for streaming.  Per-location cursors
// read frames via ReadAt on the shared source, so a k-way merge over all
// locations holds at most one decoded frame per location.  Obtain a merged
// event stream with NewStream.
type ChunkReader struct {
	src      io.ReaderAt
	file     *os.File // set when the reader opened the spool itself
	indexOff int64
	lim      Limits
	streams  []chunkIndexEntry
}

// OpenChunkFile opens and validates the spool at path (see NewChunkReader).
func OpenChunkFile(path string) (*ChunkReader, error) {
	return OpenChunkFileLimited(path, Limits{})
}

// OpenChunkFileLimited is OpenChunkFile with additional policy caps for
// untrusted network ingest (see Limits); the zero Limits is exactly
// OpenChunkFile.  Closing the reader closes the file.
func OpenChunkFileLimited(path string, lim Limits) (*ChunkReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewChunkReader(f, st.Size(), lim)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	r.file = f
	return r, nil
}

// NewChunkReader validates the size-byte spool held by src: magic,
// version, trailer, and every index entry (locations sorted and distinct,
// frame ranges inside the frame section, counts plausible for the size),
// under the policy caps lim (the zero Limits adds none).  src must stay
// readable until the reader is closed; Close does not close it.
func NewChunkReader(src io.ReaderAt, size int64, lim Limits) (*ChunkReader, error) {
	if size < chunkHeaderLen+1+chunkTrailerLen {
		return nil, fmt.Errorf("trace: chunk file too short (%d bytes)", size)
	}
	r := &ChunkReader{src: src, lim: lim}
	var hdr [chunkHeaderLen]byte
	if err := r.readAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading chunk header: %w", err)
	}
	if [4]byte(hdr[:4]) != chunkMagic {
		return nil, fmt.Errorf("trace: bad chunk magic %q", hdr[:4])
	}
	if hdr[4] != chunkVersion {
		return nil, fmt.Errorf("trace: unsupported chunk version %d (want %d)", hdr[4], chunkVersion)
	}
	var tail [chunkTrailerLen]byte
	if err := r.readAt(tail[:], size-chunkTrailerLen); err != nil {
		return nil, fmt.Errorf("trace: reading chunk trailer: %w", err)
	}
	if [4]byte(tail[8:]) != chunkTrailerMagic {
		return nil, fmt.Errorf("trace: bad chunk trailer magic %q", tail[8:])
	}
	r.indexOff = int64(binary.LittleEndian.Uint64(tail[:8]))
	if r.indexOff < chunkHeaderLen+1 || r.indexOff > size-chunkTrailerLen {
		return nil, fmt.Errorf("trace: chunk index offset %d outside file", r.indexOff)
	}
	idx := make([]byte, size-chunkTrailerLen-r.indexOff)
	if err := r.readAt(idx, r.indexOff); err != nil {
		return nil, fmt.Errorf("trace: reading chunk index: %w", err)
	}
	if err := r.parseIndex(idx); err != nil {
		return nil, err
	}
	return r, nil
}

// readAt fills p from the source at off.  A full read counts as success
// even when the source reports io.EOF alongside it, as io.ReaderAt allows.
func (r *ChunkReader) readAt(p []byte, off int64) error {
	n, err := r.src.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (r *ChunkReader) parseIndex(idx []byte) error {
	d := decoder{buf: idx}
	nStreams := d.uvarint()
	if d.err != nil {
		return fmt.Errorf("trace: chunk index: %w", d.err)
	}
	if err := checkCount(nStreams, minStreamIndexBytes, int64(len(idx)), "chunk stream"); err != nil {
		return err
	}
	if err := r.lim.checkLocations(nStreams); err != nil {
		return err
	}
	bodySize := r.indexOff - chunkHeaderLen
	var totalEvents uint64
	r.streams = make([]chunkIndexEntry, 0, sliceCap(nStreams))
	for i := uint64(0); i < nStreams; i++ {
		rank, thread := d.varint(), d.varint()
		events := d.uvarint()
		if d.err != nil {
			return fmt.Errorf("trace: chunk index stream %d: %w", i, d.err)
		}
		if rank < math.MinInt32 || rank > math.MaxInt32 || thread < math.MinInt32 || thread > math.MaxInt32 {
			return fmt.Errorf("trace: chunk index stream %d: location out of range", i)
		}
		loc := Location{Rank: int32(rank), Thread: int32(thread)}
		if n := len(r.streams); n > 0 && !r.streams[n-1].loc.less(loc) {
			return fmt.Errorf("trace: chunk index: locations unsorted or duplicated at %v", loc)
		}
		totalEvents += events
		if err := checkCount(totalEvents, minEventBytes, bodySize, "chunk event"); err != nil {
			return err
		}
		if err := r.lim.checkEvents(totalEvents); err != nil {
			return err
		}
		nFrames := d.uvarint()
		if d.err != nil {
			return fmt.Errorf("trace: chunk index stream %d: %w", i, d.err)
		}
		if err := checkCount(nFrames, minFrameBodyBytes+2, bodySize, "chunk frame"); err != nil {
			return err
		}
		frames := make([]frameRef, 0, sliceCap(nFrames))
		for j := uint64(0); j < nFrames; j++ {
			off, ln := d.uvarint(), d.uvarint()
			if d.err != nil {
				return fmt.Errorf("trace: chunk index stream %d frame %d: %w", i, j, d.err)
			}
			if off < chunkHeaderLen || ln < minFrameBodyBytes ||
				off > uint64(r.indexOff) || ln > uint64(r.indexOff) || off+ln > uint64(r.indexOff) {
				return fmt.Errorf("trace: chunk index stream %d frame %d: range [%d,%d) outside frame section", i, j, off, off+ln)
			}
			if err := r.lim.checkFrame(int64(ln)); err != nil {
				return fmt.Errorf("chunk index stream %d frame %d: %w", i, j, err)
			}
			frames = append(frames, frameRef{off: int64(off), len: int64(ln)})
		}
		r.streams = append(r.streams, chunkIndexEntry{loc: loc, events: events, frames: frames})
	}
	if n := len(idx) - d.off; n != 0 {
		return fmt.Errorf("trace: chunk index: %d trailing bytes", n)
	}
	return nil
}

// Locations returns the spool's locations in rank-major order.
func (r *ChunkReader) Locations() []Location {
	locs := make([]Location, len(r.streams))
	for i := range r.streams {
		locs[i] = r.streams[i].loc
	}
	return locs
}

// Events returns the total event count recorded in the index.
func (r *ChunkReader) Events() int {
	var n uint64
	for i := range r.streams {
		n += r.streams[i].events
	}
	return int(n)
}

// Close closes the file a reader from OpenChunkFile opened; for a reader
// from NewChunkReader it is a no-op.
func (r *ChunkReader) Close() error {
	if r.file == nil {
		return nil
	}
	return r.file.Close()
}

// chunkCursor iterates one location's frames, maintaining the location's
// locally-interned region and path tables across frames.  The decoded
// event slice and read buffer are reused from frame to frame, so a merge
// over many cursors holds one frame per location at a time.
type chunkCursor struct {
	r          *ChunkReader
	ent        *chunkIndexEntry
	fi         int
	delivered  uint64
	regions    []string
	pathParent []PathID
	pathRegion []RegionID
	events     []Event
	buf        []byte
}

func (r *ChunkReader) cursors() []*chunkCursor {
	cs := make([]*chunkCursor, len(r.streams))
	for i := range r.streams {
		cs[i] = &chunkCursor{
			r:          r,
			ent:        &r.streams[i],
			pathParent: []PathID{-1},
			pathRegion: []RegionID{-1},
		}
	}
	return cs
}

func (c *chunkCursor) loc() Location { return c.ent.loc }

func (c *chunkCursor) tables() (regions []string, pathParent []PathID, pathRegion []RegionID) {
	return c.regions, c.pathParent, c.pathRegion
}

// next returns the next frame's events (locally interned; valid until the
// following call), or (nil, nil) once the stream is exhausted.
func (c *chunkCursor) next() ([]Event, error) {
	for {
		if c.fi == len(c.ent.frames) {
			if c.delivered != c.ent.events {
				return nil, fmt.Errorf("trace: chunk stream %v: index records %d events, frames hold %d",
					c.ent.loc, c.ent.events, c.delivered)
			}
			return nil, nil
		}
		fr := c.ent.frames[c.fi]
		c.fi++
		if int64(cap(c.buf)) < fr.len {
			c.buf = make([]byte, fr.len)
		}
		buf := c.buf[:fr.len]
		if err := c.r.readAt(buf, fr.off); err != nil {
			return nil, fmt.Errorf("trace: chunk stream %v: reading frame at %d: %w", c.ent.loc, fr.off, err)
		}
		evs, err := c.parseFrame(buf)
		if err != nil {
			return nil, err
		}
		c.delivered += uint64(len(evs))
		if len(evs) > 0 {
			return evs, nil
		}
	}
}

func (c *chunkCursor) parseFrame(buf []byte) ([]Event, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("trace: chunk stream %v: corrupt frame: %s", c.ent.loc, fmt.Sprintf(format, args...))
	}
	d := decoder{buf: buf}
	rank, thread := d.varint(), d.varint()
	if d.err != nil {
		return nil, corrupt("location: %v", d.err)
	}
	if rank != int64(c.ent.loc.Rank) || thread != int64(c.ent.loc.Thread) {
		return nil, corrupt("frame belongs to %d.%d", rank, thread)
	}
	nr := d.uvarint()
	if d.err != nil {
		return nil, corrupt("region count: %v", d.err)
	}
	if err := checkCount(nr, minRegionBytes, int64(len(buf)-d.off), "chunk-frame region"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < nr; i++ {
		s := d.string()
		if d.err != nil {
			return nil, corrupt("region %d: %v", i, d.err)
		}
		c.regions = append(c.regions, s)
	}
	np := d.uvarint()
	if d.err != nil {
		return nil, corrupt("path count: %v", d.err)
	}
	if err := checkCount(np, minPathBytes, int64(len(buf)-d.off), "chunk-frame path"); err != nil {
		return nil, err
	}
	for i := uint64(0); i < np; i++ {
		parent, region := d.uvarint(), d.uvarint()
		if d.err != nil {
			return nil, corrupt("path %d: %v", i, d.err)
		}
		if parent >= uint64(len(c.pathParent)) || region >= uint64(len(c.regions)) {
			return nil, corrupt("path table entry %d references parent %d / region %d", i, parent, region)
		}
		c.pathParent = append(c.pathParent, PathID(parent))
		c.pathRegion = append(c.pathRegion, RegionID(region))
	}
	ne := d.uvarint()
	if d.err != nil {
		return nil, corrupt("event count: %v", d.err)
	}
	if err := checkCount(ne, minEventBytes, int64(len(buf)-d.off), "chunk-frame event"); err != nil {
		return nil, err
	}
	if uint64(cap(c.events)) < ne {
		c.events = make([]Event, ne)
	}
	evs := c.events[:ne]
	off := d.off
	for i := range evs {
		ev := &evs[i]
		n, err := decodeEvent(buf[off:], ev)
		if err != nil {
			return nil, corrupt("event %d: %v", i, err)
		}
		off += n
		if ev.Loc != c.ent.loc {
			return nil, corrupt("event %d belongs to %v", i, ev.Loc)
		}
		if ev.Path < 0 || int(ev.Path) >= len(c.pathParent) {
			return nil, corrupt("event %d references unknown path %d", i, ev.Path)
		}
		if (ev.Kind == KindEnter || ev.Kind == KindExit) &&
			(ev.Region < 0 || int(ev.Region) >= len(c.regions)) {
			return nil, corrupt("event %d references unknown region %d", i, ev.Region)
		}
	}
	if off != len(buf) {
		return nil, corrupt("%d trailing bytes", len(buf)-off)
	}
	return evs, nil
}

var _ io.Closer = (*ChunkReader)(nil)
