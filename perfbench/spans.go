package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// traced run. Spans of one round share the round number; parent is the index
// of the span that caused this one (-1 for a root).
type span struct {
	name       string
	parent     int32
	round      int32
	start, end int64 // nanoseconds since the tracer's origin
}

// tracer keeps spans in memory for the whole traced phase and writes them out
// once at exit, so recording costs one append per call. A nil tracer records
// nothing: the untraced run passes nil and pays only a pointer test.
type tracer struct {
	origin time.Time
	round  int32
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open reserves a span whose interval is filled in later by close, so its
// children can name it as their parent before it ends.
func (t *tracer) open(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, round: t.round})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32, start, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].start = start.Sub(t.origin).Nanoseconds()
	t.spans[id].end = end.Sub(t.origin).Nanoseconds()
}

// add records a finished span.
func (t *tracer) add(name string, parent int32, start, end time.Time) {
	t.close(t.open(name, parent), start, end)
}

// durations returns the durations in unit of every span with the given name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, sp := range t.spans {
		if sp.name == name {
			out = append(out, float64(sp.end-sp.start)/float64(unit))
		}
	}
	return out
}

// selfDurations returns, for every span with the given name, its self time
// in unit: see selfTimes.
func (t *tracer) selfDurations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	self := selfTimes(t.spans)
	var out []float64
	for i, sp := range t.spans {
		if sp.name == name {
			out = append(out, float64(self[i])/float64(unit))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children are clipped to the
// parent's interval and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, sp := range spans {
		if sp.parent >= 0 && int(sp.parent) < len(spans) {
			kids[sp.parent] = append(kids[sp.parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	var ivs [][2]int64
	for i, sp := range spans {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			s, e := max(spans[k].start, sp.start), min(spans[k].end, sp.end)
			if e > s {
				ivs = append(ivs, [2]int64{s, e})
			}
		}
		out[i] = (sp.end - sp.start) - unionLength(ivs)
	}
	return out
}

// unionLength is the total length covered by the intervals; it sorts them.
func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curS, curE, open = iv[0], iv[1], true
		case iv[0] <= curE:
			curE = max(curE, iv[1])
		default:
			total += curE - curS
			curS, curE = iv[0], iv[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write dumps the spans as CSV (id,parent,round,name,start_ns,end_ns).
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,round,name,start_ns,end_ns")
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, sp.parent, sp.round, sp.name, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
