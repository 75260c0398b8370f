package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracing records spans around the benchmark's calls into each layer's
// public functions. It exists only in the benchmark's own files: the
// program under test is never instrumented. A span has a name whose first
// dot-separated element names the layer ("rt.send.64B" is layer rt), a
// start and end, the span that caused it, and the id of the operation (job
// or request) it belongs to.
//
// Every span is timed and folded into per-layer self time; a bounded
// uniform sample of each name's spans (reservoir sampling) is kept in
// memory for percentiles and for the trace file written at the end, so a
// run of millions of round trips stays within a fixed memory budget.

// reservoirCap bounds the spans kept per (lane, name).
const reservoirCap = 4096

// Span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// layerOf names a span's layer: its name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// Tracer owns the lanes of one traced run. A nil *Tracer hands out nil
// lanes, whose methods do nothing: untraced runs pay one nil check.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	lanes []*Lane
}

// NewTracer starts a tracer whose clock reads zero now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Lane returns a new single-goroutine recording lane.
func (t *Tracer) Lane() *Lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &Lane{
		tr:   t,
		id:   uint64(len(t.lanes) + 1),
		rng:  uint64(len(t.lanes)+1) * 0x9e3779b97f4a7c15,
		kept: make(map[string]*reservoir),
		self: make(map[string]int64),
	}
	t.lanes = append(t.lanes, l)
	return l
}

// Lane records the spans of one goroutine. Begin and End nest: End closes
// the innermost open span.
type Lane struct {
	tr    *Tracer
	id    uint64
	next  uint64
	rng   uint64
	open  []openSpan
	kept  map[string]*reservoir
	self  map[string]int64 // layer -> self nanoseconds
	count int64
}

type openSpan struct {
	Span
	children int64 // nanoseconds covered by direct children
}

type reservoir struct {
	seen  int64
	spans []Span
}

func (l *Lane) now() int64 { return int64(time.Since(l.tr.epoch)) }

// Begin opens a span of operation op under the innermost open span.
func (l *Lane) Begin(name string, op uint64) {
	if l == nil {
		return
	}
	l.next++
	s := Span{ID: l.id<<40 | l.next, Op: op, Name: name}
	if n := len(l.open); n > 0 {
		s.Parent = l.open[n-1].ID
	}
	s.Start = l.now()
	l.open = append(l.open, openSpan{Span: s})
}

// End closes the innermost open span.
func (l *Lane) End() {
	if l == nil {
		return
	}
	end := l.now()
	n := len(l.open) - 1
	o := l.open[n]
	l.open = l.open[:n]
	o.End = end
	d := o.Dur()
	if n > 0 {
		l.open[n-1].children += d
	}
	l.self[layerOf(o.Name)] += d - o.children
	l.count++
	l.keep(o.Span)
}

// keep offers a finished span to its name's reservoir (Algorithm R with a
// per-lane xorshift generator, so the sample is reproducible per lane).
func (l *Lane) keep(s Span) {
	r := l.kept[s.Name]
	if r == nil {
		r = &reservoir{}
		l.kept[s.Name] = r
	}
	r.seen++
	if len(r.spans) < reservoirCap {
		r.spans = append(r.spans, s)
		return
	}
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	if j := l.rng % uint64(r.seen); j < reservoirCap {
		r.spans[j] = s
	}
}

// Durations returns the sampled durations of every span named name, in
// nanoseconds, across all lanes. Call after the traced goroutines ended.
func (t *Tracer) Durations(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, l := range t.lanes {
		if r := l.kept[name]; r != nil {
			for _, s := range r.spans {
				out = append(out, float64(s.Dur()))
			}
		}
	}
	return out
}

// SelfNS returns each layer's self time in nanoseconds: its spans'
// durations minus the parts their direct child spans cover.
func (t *Tracer) SelfNS() map[string]int64 {
	out := make(map[string]int64)
	if t == nil {
		return out
	}
	for _, l := range t.lanes {
		for layer, ns := range l.self {
			out[layer] += ns
		}
	}
	return out
}

// Count returns the number of spans recorded (sampled or not).
func (t *Tracer) Count() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for _, l := range t.lanes {
		n += l.count
	}
	return n
}

// WriteFile writes the kept spans as Chrome trace-event JSON (readable by
// Perfetto and chrome://tracing), one track per lane.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  uint64            `json:"tid"`
		Args map[string]uint64 `json:"args"`
	}
	w.WriteString("[\n")
	first := true
	for _, l := range t.lanes {
		names := make([]string, 0, len(l.kept))
		for name := range l.kept {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, s := range l.kept[name].spans {
				buf, err := json.Marshal(event{
					Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
					TS: float64(s.Start) / 1e3, Dur: float64(s.Dur()) / 1e3,
					PID: 1, TID: l.id,
					Args: map[string]uint64{"id": s.ID, "parent": s.Parent, "op": s.Op},
				})
				if err != nil {
					return fmt.Errorf("trace: %w", err)
				}
				if !first {
					w.WriteString(",\n")
				}
				first = false
				w.Write(buf)
			}
		}
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
