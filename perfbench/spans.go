package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer.  Spans of one case, world or
// request share ID; Parent indexes the enclosing span in the same
// tracer, -1 for a root.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory, plus the counters
// recorded at the same boundaries.  A nil *tracer records nothing, so
// the untraced path pays one nil check per boundary.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: make(map[string]float64)}
}

// count adds v to a counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// item starts recording the spans of one case, world or request.  Its
// spans are buffered locally and published by done, so concurrent items
// take the tracer's lock once each.
func (t *tracer) item(id int64) *itemTrace {
	if t == nil {
		return nil
	}
	return &itemTrace{t: t, id: id}
}

// itemTrace records the nested spans of one item on one goroutine.
type itemTrace struct {
	t     *tracer
	id    int64
	spans []span
	open  []int
}

// begin opens a span nested in the innermost open one.
func (it *itemTrace) begin(name string) {
	if it == nil {
		return
	}
	parent := -1
	if n := len(it.open); n > 0 {
		parent = it.open[n-1]
	}
	it.open = append(it.open, len(it.spans))
	it.spans = append(it.spans, span{
		ID: it.id, Name: name, Parent: parent,
		Start: int64(time.Since(it.t.epoch)),
	})
}

// end closes the innermost open span.
func (it *itemTrace) end() {
	if it == nil {
		return
	}
	n := len(it.open)
	it.spans[it.open[n-1]].End = int64(time.Since(it.t.epoch))
	it.open = it.open[:n-1]
}

// done publishes the item's spans, rebasing parent indices.
func (it *itemTrace) done() {
	if it == nil {
		return
	}
	for len(it.open) > 0 {
		it.end()
	}
	it.t.mu.Lock()
	base := len(it.t.spans)
	for _, s := range it.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		it.t.spans = append(it.t.spans, s)
	}
	it.t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Calls int
	Self  float64 // seconds, summed over calls
}

// selfTimes derives, per span name, the call count and the self time:
// each span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]layerStat {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerStat)
	for i, s := range spans {
		self := s.End - s.Start - covered(children[i], s.Start, s.End)
		st := out[s.Name]
		st.Calls++
		st.Self += float64(self) / 1e9
		out[s.Name] = st
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([][2]int64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	cur := lo
	for _, iv := range s {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
