// Package obs is the observability substrate of the metasearcher: a
// per-query Trace (a timed span tree carried through context.Context), a
// dependency-free metrics Registry (counters, gauges, fixed-bucket
// latency histograms), an instrumented client.Conn wrapper, and the HTTP
// handlers that surface both (/metrics, /debug/last-traces).
//
// obs deliberately imports nothing from internal/core — the dependency
// points outward, like core.BreakerGate: core, client wrappers
// (resilient, faulty) and servers all import obs, never the reverse, so
// any layer can annotate the current span or record a metric without an
// import cycle. Traces and the registry travel via context (WithTrace,
// WithSpan, WithMetrics), which is how a retry wrapper deep inside a
// fan-out reaches the span that core opened for its source.
//
// Every Trace and Span method is safe on a nil receiver (a no-op), so
// instrumented code never guards "is tracing on?": SpanFrom on a bare
// context returns nil and the annotations simply vanish.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Trace records one operation's timed span tree. The zero value is ready
// to use: Begin stamps the query and start time, StartSpan opens stage
// spans, Finish stamps the total duration. All methods are safe for
// concurrent use (fan-out spans start and end from many goroutines) and
// safe on a nil *Trace.
type Trace struct {
	mu    sync.Mutex
	query string
	// describe, when set, renders query on the first Snapshot: a search
	// nobody inspects never prints its query.
	describe fmt.Stringer
	start    time.Time
	dur      time.Duration
	spans    []*Span
}

// NewTrace returns a started trace for the given query description.
func NewTrace(query string) *Trace {
	t := &Trace{}
	t.Begin(query)
	return t
}

// Begin (re)initializes the trace: it stamps the query description and
// the start time and drops any prior spans, so a caller-owned Trace can
// be reused across searches.
func (t *Trace) Begin(query string) {
	t.begin(query, nil)
}

// BeginLazy is Begin with a description that is rendered only when the
// trace is first snapshotted, and at most once; the hot path of a search
// whose trace nobody reads then never prints its query. describe must
// render the same text whenever it is called.
func (t *Trace) BeginLazy(describe fmt.Stringer) {
	t.begin("", describe)
}

func (t *Trace) begin(query string, describe fmt.Stringer) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.query = query
	t.describe = describe
	t.start = time.Now()
	t.dur = 0
	t.spans = nil
}

// Finish stamps the trace's total duration. Later Finish calls win, so a
// deferred Finish after late annotations is fine.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dur = time.Since(t.start)
}

// StartSpan opens a top-level span (a pipeline stage).
func (t *Trace) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Span is one timed operation within a trace. Spans nest (Child) and
// carry ordered key=value annotations. All methods are safe on a nil
// receiver and safe for concurrent use.
type Span struct {
	t        *Trace
	name     string
	source   string
	start    time.Time
	dur      time.Duration
	ended    bool
	err      string
	attrs    []Attr
	children []*Span
}

// Attr is one span annotation.
type Attr struct {
	Key, Value string
}

// Child opens a nested span under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{t: s.t, name: name, start: time.Now()}
	s.t.mu.Lock()
	s.children = append(s.children, c)
	s.t.mu.Unlock()
	return c
}

// SetSource tags the span with the source it concerns.
func (s *Span) SetSource(id string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.source = id
	s.t.mu.Unlock()
}

// Annotate appends a key=value annotation.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// End closes the span, recording its duration and error (nil err leaves
// the span clean). The first End wins; later calls are no-ops, so a
// deferred End is a safe backstop.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if err != nil {
		s.err = err.Error()
	}
}

// SpanInfo is an immutable snapshot of a Span, safe to hold after the
// trace moves on.
type SpanInfo struct {
	Name     string
	Source   string
	Start    time.Time
	Duration time.Duration
	Err      string
	Attrs    []Attr
	Children []SpanInfo
}

// Attr returns the value of the first annotation with the given key, and
// whether one exists.
func (si SpanInfo) Attr(key string) (string, bool) {
	for _, a := range si.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TraceInfo is an immutable snapshot of a whole Trace.
type TraceInfo struct {
	Query    string
	Start    time.Time
	Duration time.Duration
	Spans    []SpanInfo
}

// Snapshot captures the trace's current state as plain values. A nil
// trace snapshots to the zero TraceInfo.
func (t *Trace) Snapshot() TraceInfo {
	if t == nil {
		return TraceInfo{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.describe != nil {
		t.query, t.describe = t.describe.String(), nil
	}
	ti := TraceInfo{Query: t.query, Start: t.start, Duration: t.dur}
	ti.Spans = snapshotSpans(t.spans)
	return ti
}

// snapshotSpans copies a span forest; the caller holds the trace lock.
func snapshotSpans(spans []*Span) []SpanInfo {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanInfo, len(spans))
	for i, s := range spans {
		out[i] = SpanInfo{
			Name: s.name, Source: s.source, Start: s.start,
			Duration: s.dur, Err: s.err,
			Attrs:    append([]Attr(nil), s.attrs...),
			Children: snapshotSpans(s.children),
		}
	}
	return out
}

// SpanCount is the total number of spans in the snapshot, at any depth.
func (ti TraceInfo) SpanCount() int {
	return countSpans(ti.Spans)
}

func countSpans(spans []SpanInfo) int {
	n := len(spans)
	for _, s := range spans {
		n += countSpans(s.Children)
	}
	return n
}

// Find returns the first span with the given name in depth-first order,
// or nil.
func (ti TraceInfo) Find(name string) *SpanInfo {
	return findSpan(ti.Spans, name)
}

func findSpan(spans []SpanInfo, name string) *SpanInfo {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if hit := findSpan(spans[i].Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// Tree renders the snapshot as an indented text tree, one span per line:
//
//	trace "databases" 12.3ms
//	├─ harvest 1.1ms hits=3 misses=0
//	├─ fanout 10.8ms
//	│  ├─ query [cs] 9.2ms docs=5
//	│  └─ query [bad] 10.7ms ERR: injected failure
//	└─ merge 0.2ms strategy=term-stats
func (ti TraceInfo) Tree() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %q %s\n", ti.Query, round(ti.Duration))
	renderSpans(&b, ti.Spans, "")
	return b.String()
}

func renderSpans(b *strings.Builder, spans []SpanInfo, prefix string) {
	for i, s := range spans {
		branch, cont := "├─ ", "│  "
		if i == len(spans)-1 {
			branch, cont = "└─ ", "   "
		}
		b.WriteString(prefix + branch + s.Name)
		if s.Source != "" {
			fmt.Fprintf(b, " [%s]", s.Source)
		}
		fmt.Fprintf(b, " %s", round(s.Duration))
		for _, a := range s.Attrs {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
		}
		if s.Err != "" {
			fmt.Fprintf(b, " ERR: %s", s.Err)
		}
		b.WriteByte('\n')
		renderSpans(b, s.Children, prefix+cont)
	}
}

// round trims durations to a display-friendly precision.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	}
	return d.Round(100 * time.Nanosecond)
}

// TraceRing keeps the last N trace snapshots, newest first — the backing
// store of /debug/last-traces.
type TraceRing struct {
	mu   sync.Mutex
	buf  []TraceInfo
	next int
	full bool
}

// NewTraceRing returns a ring holding up to n traces (minimum 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]TraceInfo, n)}
}

// Add snapshots the trace into the ring. Nil rings and nil traces are
// no-ops.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	ti := t.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = ti
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Snapshots lists the stored traces, newest first.
func (r *TraceRing) Snapshots() []TraceInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]TraceInfo, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
