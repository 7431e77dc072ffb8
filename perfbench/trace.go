package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"starts/internal/client"
	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers. Spans of one query share Req; Parent is the span that
// caused this one (0 for a query's root). Times are nanoseconds since
// the recorder started.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is a layer-specific count: sources picked for gloss.rank,
	// documents merged for merge.merge, documents returned for a conn
	// call. Items is the number of queries a conn call carried.
	N     int `json:"n,omitempty"`
	Items int `json:"items,omitempty"`
	// Source names the source a conn call went to.
	Source string `json:"source,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// A traced run keeps at most this many spans, core traces and source-call
// results (the latter for the post-run encode timing); later ones are
// dropped, so a cache-hit window of several hundred thousand queries
// stays within memory. The per-layer figures are medians, which the
// first ones already settle.
const (
	keptSpans   = 1 << 18
	keptTraces  = 1 << 14
	keptBatches = 400
)

// recorder keeps every span of a traced run in memory; write dumps them
// at the end. It also maps query values to request ids, for the layers
// (selector, merger) whose calls carry the query but no context.
type recorder struct {
	base   time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
	// traces are the core span trees of traced requests, by request id.
	traces map[int64]*obs.Trace
	// batches keeps the results of source calls made over HTTP, so the
	// leaf's SOIF encoding of them can be timed after the run.
	batches [][]*result.Results

	queries sync.Map // *query.Query -> int64 request id
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), traces: map[int64]*obs.Trace{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) id() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	if len(r.spans) < keptSpans {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// keepTrace records the core trace a request ran under (first wins).
func (r *recorder) keepTrace(req int64, tr *obs.Trace) {
	if req == 0 || tr == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.traces[req]; !ok && len(r.traces) < keptTraces {
		r.traces[req] = tr
	}
	r.mu.Unlock()
}

func (r *recorder) reqOf(q *query.Query) int64 {
	if v, ok := r.queries.Load(q); ok {
		return v.(int64)
	}
	return 0
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// request opens a traced query: a fresh request id, the root span, the
// query registered under the id, and the core trace kept. The returned
// func closes it.
func (r *recorder) request(ctx context.Context, name string, q *query.Query, tr *obs.Trace) (context.Context, func()) {
	req := r.id()
	root := span{Name: name, Req: req, ID: r.id(), Start: r.now()}
	r.queries.Store(q, req)
	r.keepTrace(req, tr)
	return withReq(ctx, req, root.ID), func() {
		root.End = r.now()
		r.add(root)
		r.queries.Delete(q)
	}
}

type reqKey struct{}
type parentKey struct{}

func withReq(ctx context.Context, req, parent int64) context.Context {
	return context.WithValue(context.WithValue(ctx, reqKey{}, req), parentKey{}, parent)
}

func reqFrom(ctx context.Context) (req, parent int64) {
	req, _ = ctx.Value(reqKey{}).(int64)
	parent, _ = ctx.Value(parentKey{}).(int64)
	return req, parent
}

// timedSelector times gloss selection. Name is the inner selector's, so
// cache keys are unchanged.
type timedSelector struct {
	inner gloss.Selector
	rec   *recorder
}

func (s timedSelector) Name() string { return s.inner.Name() }

func (s timedSelector) Rank(q *query.Query, infos []gloss.SourceInfo) []gloss.Ranked {
	start := s.rec.now()
	out := s.inner.Rank(q, infos)
	picked := 0
	for _, r := range out {
		if r.Goodness > 0 {
			picked++
		}
	}
	s.rec.add(span{Name: "gloss.rank", Req: s.rec.reqOf(q), ID: s.rec.id(), Start: start, End: s.rec.now(), N: picked})
	return out
}

// timedStrategy times rank merging; timedStreamable adds the streaming
// feeder when the inner strategy has one, so wrapping never changes how
// early documents flow. The default merger has no feeder today; the
// moment it gets one, the traced run streams exactly as the untraced.
type timedStrategy struct {
	inner merge.Strategy
	rec   *recorder
}

type timedStreamable struct {
	timedStrategy
	s merge.Streamable
}

func wrapStrategy(s merge.Strategy, rec *recorder) merge.Strategy {
	t := timedStrategy{inner: s, rec: rec}
	if st, ok := s.(merge.Streamable); ok {
		return timedStreamable{timedStrategy: t, s: st}
	}
	return t
}

func (s timedStrategy) Name() string { return s.inner.Name() }

func (s timedStrategy) Merge(q *query.Query, inputs []merge.SourceResult) []*result.Document {
	docs := 0
	for _, in := range inputs {
		docs += len(in.Results.Documents)
	}
	start := s.rec.now()
	out := s.inner.Merge(q, inputs)
	s.rec.add(span{Name: "merge.merge", Req: s.rec.reqOf(q), ID: s.rec.id(), Start: start, End: s.rec.now(), N: docs})
	return out
}

func (s timedStreamable) Feeder(q *query.Query, roster []merge.StreamSource) merge.Feeder {
	return s.s.Feeder(q, roster)
}

// timedConn times every query call on a conn. The wrapper types below
// add QueryBatch and QueryStream exactly when the inner conn has them,
// so wrapping never downgrades the multiplexed or streaming paths.
type timedConn struct {
	inner client.Conn
	rec   *recorder
	name  string
	// keepResults holds on to batch results for the post-run encode
	// timing (set for conns whose calls cross HTTP).
	keepResults bool
}

type timedBatchConn struct {
	*timedConn
	b client.BatchConn
}

type timedStreamConn struct {
	*timedConn
	s client.StreamConn
}

type timedBatchStreamConn struct {
	timedBatchConn
	s client.StreamConn
}

func wrapConn(c client.Conn, rec *recorder, name string, keepResults bool) client.Conn {
	t := &timedConn{inner: c, rec: rec, name: name, keepResults: keepResults}
	b, isBatch := c.(client.BatchConn)
	s, isStream := c.(client.StreamConn)
	switch {
	case isBatch && isStream:
		return timedBatchStreamConn{timedBatchConn: timedBatchConn{timedConn: t, b: b}, s: s}
	case isBatch:
		return timedBatchConn{timedConn: t, b: b}
	case isStream:
		return timedStreamConn{timedConn: t, s: s}
	}
	return t
}

func (c *timedConn) SourceID() string { return c.inner.SourceID() }

func (c *timedConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	return c.inner.Metadata(ctx)
}

func (c *timedConn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	return c.inner.Summary(ctx)
}

func (c *timedConn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	return c.inner.Sample(ctx)
}

// begin opens a span for one call. The request and parent come from the
// context; a call made on a dispatch worker carries its batch leader's
// context, so it is attributed to the leader's request. The leader's
// core trace is kept too, which is how core spans of queries reaching
// the metasearcher over HTTP are found.
func (c *timedConn) begin(ctx context.Context) (span, context.Context) {
	req, parent := reqFrom(ctx)
	c.rec.keepTrace(req, obs.TraceFrom(ctx))
	s := span{Name: c.name, Req: req, ID: c.rec.id(), Parent: parent, Source: c.inner.SourceID(), Start: c.rec.now()}
	return s, withReq(ctx, req, s.ID)
}

func (c *timedConn) end(s span, items int, res ...*result.Results) {
	s.End = c.rec.now()
	s.Items = items
	for _, r := range res {
		if r != nil {
			s.N += len(r.Documents)
		}
	}
	c.rec.add(s)
}

func (c *timedConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	s, ctx := c.begin(ctx)
	res, err := c.inner.Query(ctx, q)
	c.end(s, 1, res)
	return res, err
}

func (c timedBatchConn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	s, ctx := c.begin(ctx)
	rs, errs := c.b.QueryBatch(ctx, qs)
	c.end(s, len(qs), rs...)
	if c.keepResults {
		c.rec.mu.Lock()
		if len(c.rec.batches) < keptBatches {
			c.rec.batches = append(c.rec.batches, rs)
		}
		c.rec.mu.Unlock()
	}
	return rs, errs
}

func (c timedStreamConn) QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	return c.timedConn.stream(ctx, c.s, q, sink)
}

func (c timedBatchStreamConn) QueryStream(ctx context.Context, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	return c.timedConn.stream(ctx, c.s, q, sink)
}

// stream times a streamed query. The query value is registered under
// the request first, so the selector and merger calls it causes (which
// see the query but no context) are attributed to it.
func (c *timedConn) stream(ctx context.Context, sc client.StreamConn, q *query.Query, sink func(result.StreamItem) error) (*result.Results, error) {
	s, ctx := c.begin(ctx)
	if s.Req != 0 {
		c.rec.queries.Store(q, s.Req)
		defer c.rec.queries.Delete(q)
	}
	res, err := sc.QueryStream(ctx, q, sink)
	c.end(s, 1, res)
	return res, err
}

// byteMeter counts HTTP body bytes in both directions.
type byteMeter struct{ n atomic.Int64 }

// meteredTransport counts the request and response body bytes of every
// round trip into meter.
type meteredTransport struct {
	inner http.RoundTripper
	meter *byteMeter
}

func (t *meteredTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.meter.n.Add(req.ContentLength)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, onRead: func(n int) { t.meter.n.Add(int64(n)) }}
	return resp, nil
}

// countingBody reports every read to onRead, and the close to onClose.
type countingBody struct {
	io.ReadCloser
	onRead  func(int)
	onClose func()
	once    sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && b.onRead != nil {
		b.onRead(n)
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *countingBody) finish() {
	if b.onClose != nil {
		b.once.Do(b.onClose)
	}
}

const reqHeader = "X-Perfbench-Req"

// tracedTransport records one span per round trip, from sending the
// request to the end of its response body, and carries the request id
// and span id to the server in a header.
type tracedTransport struct {
	inner http.RoundTripper
	rec   *recorder
	name  string
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rid, parent := reqFrom(req.Context())
	s := span{Name: t.name, Req: rid, ID: t.rec.id(), Parent: parent, Start: t.rec.now()}
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatInt(rid, 10)+"/"+strconv.FormatInt(s.ID, 10))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, onClose: func() {
		s.End = t.rec.now()
		t.rec.add(s)
	}}
	return resp, nil
}

// handlerHook wraps a server's handler and records one span per
// request, parented to the client span named in the request header; it
// hands the request id on through the request context.
type handlerHook struct {
	inner http.Handler
	name  string
	rec   *recorder
}

func (h *handlerHook) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var rid, parent int64
	if a, b, ok := strings.Cut(r.Header.Get(reqHeader), "/"); ok {
		rid, _ = strconv.ParseInt(a, 10, 64)
		parent, _ = strconv.ParseInt(b, 10, 64)
	}
	s := span{Name: h.name, Req: rid, ID: h.rec.id(), Parent: parent, Start: h.rec.now()}
	h.inner.ServeHTTP(w, r.WithContext(withReq(r.Context(), rid, s.ID)))
	s.End = h.rec.now()
	h.rec.add(s)
}
