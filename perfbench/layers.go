package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/result"
	"starts/internal/soif"
)

// counters are the program's own counters that the per-layer metrics
// take deltas of: the metasearcher's and its cache's registry, the
// dispatcher's queue snapshot, and the HTTP byte meters.
type counters struct {
	reg                                      map[string]int64
	submitted, batched, wireCalls, wireItems int64
	shed                                     int64
	leafBytes, clientBytes                   int64
}

var mergeDocsCounter = obs.L("starts_merge_docs_total", "strategy", merge.TermStats{}.Name())

var registryCounters = []string{
	obs.MQCacheHits, obs.MQCacheMisses, obs.MQCacheStale, obs.MQCacheCoalesced,
	obs.MStreamEarlyDocs, mergeDocsCounter,
}

func readCounters(st *stack) counters {
	c := counters{reg: map[string]int64{}}
	reg := st.ms.Metrics()
	for _, n := range registryCounters {
		c.reg[n] = reg.Counter(n).Value()
	}
	for _, q := range st.ms.Dispatcher().Snapshot() {
		c.submitted += q.Submitted
		c.batched += q.Batched
		c.wireCalls += q.WireCalls
		c.wireItems += q.WireItems
		c.shed += q.QueueFull + q.Refused + q.Doomed
	}
	if st.front != nil {
		c.leafBytes = st.front.leafBytes.n.Load()
		c.clientBytes = st.clientBytes.n.Load()
	}
	return c
}

func (c counters) delta(name string, before counters) float64 {
	return float64(c.reg[name] - before.reg[name])
}

// checkMultiplexed fails an http-straggler run whose dispatch layer
// issued exactly one query per wire call: with queued calls at the
// straggler, that means the multiplexed path was lost somewhere between
// the dispatcher and the wire.
func checkMultiplexed(w *workload, before, after counters) error {
	calls, items := after.wireCalls-before.wireCalls, after.wireItems-before.wireItems
	if w.overHTTP && calls > 0 && items == calls {
		return fmt.Errorf("dispatch.items_per_wire_call reads exactly 1 (%d calls): wire batching is not engaged", calls)
	}
	return nil
}

// runtimeStats are cumulative runtime counters read around a window.
type runtimeStats struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{v(0), v(1), v(2), v(3), v(4)}
}

func runTraced(ctx context.Context, w *workload, rc runConfig, qs *querySet, ids *idCounter) (*report, error) {
	traceCap := 0
	if w.overHTTP {
		traceCap = leafTraceCap
	}
	f, err := buildFleet(rc, w, traceCap)
	if err != nil {
		return nil, err
	}
	defer func() {
		if f != nil {
			f.close()
		}
	}()
	// Two systems over one fleet: the untraced one is configured exactly
	// as in an end-to-end run; the traced one has the timing wrappers on.
	plain, err := w.build(ctx, rc, f, nil, qs)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := w.build(ctx, rc, f, rec, qs)
	if err != nil {
		plain.close()
		return nil, err
	}
	plain.tgt, traced.tgt = rc.tamper(plain.tgt), rc.tamper(traced.tgt)

	warmPlain := w.drive(ctx, rc, plain, qs, ids, warmupFor(rc.window))
	runtime.GC()
	rt0 := readRuntime()
	pu := w.drive(ctx, rc, plain, qs, ids, rc.window)
	rt1 := readRuntime()

	warmTraced := w.drive(ctx, rc, traced, qs, ids, warmupFor(rc.window))
	rec.reset()
	runtime.GC()
	before := readCounters(traced)
	tracedStart := time.Now()
	pt := w.drive(ctx, rc, traced, qs, ids, rc.window)
	after := readCounters(traced)
	var leafTraces []obs.TraceInfo
	if f.leaf != nil {
		for _, ti := range f.leaf.srv.Traces().Snapshots() {
			if !ti.Start.Before(tracedStart) {
				leafTraces = append(leafTraces, ti)
			}
		}
	}
	plain.close()
	traced.close()
	f.close()
	f = nil

	wrong, err := check(ctx, rc, w, qs, warmPlain, pu, warmTraced, pt)
	if err != nil {
		return nil, err
	}
	if err := checkMultiplexed(w, before, after); err != nil {
		return nil, err
	}
	if err := writeSpans(rc, w, rec); err != nil {
		return nil, err
	}
	m := layerMetrics(rc, rec, pu, pt, rt0, rt1, before, after, leafTraces)
	failed := failures(pu) + failures(pt)
	rc.log("untraced window: %d attempted; traced window: %d attempted; %d failed, %d wrong", pu.attempted(), pt.attempted(), failed, wrong)
	logErrors(rc, warmPlain, pu, warmTraced, pt)
	return &report{Correct: wrong == 0, Attempted: pu.attempted() + pt.attempted(), Failed: failed, Metrics: m}, nil
}

// reset drops everything recorded so far (the traced warm-up).
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = nil
	r.traces = map[int64]*obs.Trace{}
	r.batches = nil
}

// okLatencies returns the latencies of a window's answered queries.
func okLatencies(p *phase) []time.Duration {
	var ds []time.Duration
	for _, s := range p.samples {
		if s.err == nil {
			ds = append(ds, s.latency)
		}
	}
	return ds
}

// interval is a half-open time range in nanoseconds since the
// recorder's base.
type interval struct{ start, end int64 }

// covered is the total length of the union of ivs clipped to within.
func covered(within interval, ivs []interval) int64 {
	var cl []interval
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			cl = append(cl, iv)
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].start < cl[j].start })
	var total, reach int64 = 0, within.start
	for _, iv := range cl {
		if iv.start > reach {
			reach = iv.start
		}
		if iv.end > reach {
			total += iv.end - reach
			reach = iv.end
		}
	}
	return total
}

// layerStats accumulates per-layer samples.
type layerStats struct {
	durs   map[string][]time.Duration
	counts map[string][]float64
}

func (l *layerStats) dur(name string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.durs[name] = append(l.durs[name], d)
}

func (l *layerStats) count(name string, v float64) { l.counts[name] = append(l.counts[name], v) }

func (l *layerStats) p(name string, q float64) float64 { return us(quantile(l.durs[name], q)) }

func (l *layerStats) mean(name string) float64 {
	xs := l.counts[name]
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives every per-layer metric of a traced run. Durations
// are medians (or the named percentile) over calls, in microseconds;
// shares and per-query figures are ratios of counter deltas over the
// traced window; runtime figures are over the untraced window, which is
// configured exactly like an end-to-end run.
func layerMetrics(rc runConfig, rec *recorder, pu, pt *phase, rt0, rt1 runtimeStats, before, after counters, leafTraces []obs.TraceInfo) map[string]metric {
	l := &layerStats{durs: map[string][]time.Duration{}, counts: map[string][]float64{}}
	byReq := map[int64][]span{}
	for _, s := range rec.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for _, s := range rec.spans {
		switch s.Name {
		case "gloss.rank":
			l.dur("gloss.rank", s.dur())
			l.count("gloss.picked", float64(s.N))
		case "merge.merge":
			l.dur("merge.merge", s.dur())
			l.count("merge.docs_in", float64(s.N))
		case "source.query":
			l.dur("source.query", s.dur())
			l.count("source.docs", float64(s.N))
		case "client.leaf":
			l.dur("client.leaf", s.dur())
		case "server.front":
			var inner time.Duration
			for _, c := range byReq[s.Req] {
				if c.Parent == s.ID && c.Name == "broker.search" {
					inner += c.dur()
				}
			}
			l.dur("server.front", s.dur()-inner)
		}
	}
	calls := len(l.durs["source.query"])

	// Core span trees: self times, cache hits, translation drops and
	// dispatch waits (a query span minus the source call that served it).
	bySource := map[string][]span{}
	for _, s := range rec.spans {
		if s.Name == "source.query" {
			bySource[s.Source] = append(bySource[s.Source], s)
		}
	}
	unmatched := 0
	for req, tr := range rec.traces {
		ti := tr.Snapshot()
		at := func(si obs.SpanInfo) interval {
			s := int64(si.Start.Sub(rec.base))
			return interval{s, s + int64(si.Duration)}
		}
		var top []interval
		stage := map[string]obs.SpanInfo{}
		for _, si := range ti.Spans {
			top = append(top, at(si))
			if _, ok := stage[si.Name]; !ok {
				stage[si.Name] = si
			}
		}
		mine := byReq[req]
		sumOf := func(name string, within interval) time.Duration {
			var d time.Duration
			for _, s := range mine {
				if s.Name == name && s.Start >= within.start && s.End <= within.end {
					d += s.dur()
				}
			}
			return d
		}
		children := func(si obs.SpanInfo) []interval {
			var ivs []interval
			for _, c := range si.Children {
				ivs = append(ivs, at(c))
			}
			return ivs
		}
		root := interval{int64(ti.Start.Sub(rec.base)), int64(ti.Start.Sub(rec.base)) + int64(ti.Duration)}
		l.dur("core.self", time.Duration(root.end-root.start-covered(root, top)))
		if si, ok := stage["cache"]; ok {
			iv := at(si)
			var others []interval
			for _, o := range ti.Spans {
				if o.Name != "cache" {
					others = append(others, at(o))
				}
			}
			l.dur("core.cache", time.Duration(iv.end-iv.start-covered(iv, others)))
			if out, _ := si.Attr("outcome"); out == "hit" {
				l.dur("qcache.hit", si.Duration)
			}
		}
		if si, ok := stage["harvest"]; ok {
			iv := at(si)
			l.dur("core.harvest", time.Duration(iv.end-iv.start-covered(iv, children(si))))
		}
		if si, ok := stage["select"]; ok {
			l.dur("core.select", si.Duration-sumOf("gloss.rank", at(si)))
		}
		if si, ok := stage["translate"]; ok {
			l.dur("core.translate", si.Duration)
			dropped := 0
			for _, c := range si.Children {
				if v, ok := c.Attr("dropped-terms"); ok {
					n, _ := strconv.Atoi(v)
					dropped += n
				}
			}
			l.count("translate.dropped", float64(dropped))
		}
		if si, ok := stage["fanout"]; ok {
			iv := at(si)
			l.dur("core.fanout", time.Duration(iv.end-iv.start-covered(iv, children(si))))
			for _, q := range si.Children {
				qiv := at(q)
				var best *span
				for i, s := range bySource[q.Source] {
					if s.Start >= qiv.start && s.End <= qiv.end && (best == nil || s.End > best.End) {
						best = &bySource[q.Source][i]
					}
				}
				if best == nil {
					unmatched++
					continue
				}
				l.dur("dispatch.wait", q.Duration-best.dur())
			}
		}
		if si, ok := stage["merge"]; ok {
			l.dur("core.merge", si.Duration-sumOf("merge.merge", at(si)))
		}
	}

	// Leaf server traces: decode and search spans of each leaf request.
	for _, ti := range leafTraces {
		for _, si := range ti.Spans {
			switch si.Name {
			case "decode":
				l.dur("server.leaf_decode", si.Duration)
			case "search":
				l.dur("server.leaf_search", si.Duration)
			}
		}
	}
	// The leaf encodes its batch responses inside its search span, so the
	// encode cost is timed here by encoding the same answers with the
	// leaf's own encoder calls.
	for _, rs := range rec.batches {
		t0 := time.Now()
		enc := soif.NewEncoder(io.Discard)
		for i, r := range rs {
			_ = result.EncodeBatchItem(enc, i, r, nil)
		}
		l.dur("server.leaf_encode", time.Since(t0))
	}

	answered := float64(len(okLatencies(pt)))
	lookups := after.delta(obs.MQCacheHits, before) + after.delta(obs.MQCacheMisses, before) +
		after.delta(obs.MQCacheStale, before) + after.delta(obs.MQCacheCoalesced, before)
	var lags []time.Duration
	for _, s := range pu.samples {
		lags = append(lags, s.lag)
	}
	untracedAttempted := float64(pu.attempted())
	usedCPU := (rt1.totalCPU - rt0.totalCPU) - (rt1.idleCPU - rt0.idleCPU)
	rc.log("traced window: %d answered, %d core traces, %d source calls, %d unmatched query spans, %d leaf traces, %d encode samples",
		int(answered), len(rec.traces), calls, unmatched, len(leafTraces), len(rec.batches))

	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, n := range []string{"cache", "harvest", "select", "translate", "fanout", "merge", "self"} {
		set("core."+n+"_us", l.p("core."+n, 0.5), "us")
	}
	set("gloss.rank_us", l.p("gloss.rank", 0.5), "us")
	set("gloss.sources_picked", l.mean("gloss.picked"), "count")
	set("translate.dropped_terms", l.mean("translate.dropped"), "count")
	set("merge.merge_us", l.p("merge.merge", 0.5), "us")
	set("merge.docs_in", l.mean("merge.docs_in"), "count")
	set("stream.early_docs_share", ratio(after.delta(obs.MStreamEarlyDocs, before), after.delta(mergeDocsCounter, before)), "share")
	set("dispatch.wait_us_p50", l.p("dispatch.wait", 0.5), "us")
	set("dispatch.wait_us_p99", l.p("dispatch.wait", 0.99), "us")
	set("dispatch.coalesced_share", ratio(float64(after.batched-before.batched), float64(after.submitted-before.submitted)), "share")
	set("dispatch.items_per_wire_call", ratio(float64(after.wireItems-before.wireItems), float64(after.wireCalls-before.wireCalls)), "count")
	set("dispatch.shed", float64(after.shed-before.shed), "count")
	set("source.query_us_p50", l.p("source.query", 0.5), "us")
	set("source.query_us_p99", l.p("source.query", 0.99), "us")
	set("source.calls_per_search", ratio(float64(calls), answered), "count")
	set("source.docs_per_call", l.mean("source.docs"), "count")
	set("qcache.hit_share", ratio(after.delta(obs.MQCacheHits, before), lookups), "share")
	set("qcache.coalesced_share", ratio(after.delta(obs.MQCacheCoalesced, before), lookups), "share")
	set("qcache.hit_us", l.p("qcache.hit", 0.5), "us")
	set("client.leaf_rtt_us", l.p("client.leaf", 0.5), "us")
	set("server.leaf_decode_us", l.p("server.leaf_decode", 0.5), "us")
	set("server.leaf_search_us", l.p("server.leaf_search", 0.5), "us")
	set("server.leaf_encode_us", l.p("server.leaf_encode", 0.5), "us")
	set("server.front_us", l.p("server.front", 0.5), "us")
	set("wire.leaf_bytes_per_query", ratio(float64(after.leafBytes-before.leafBytes), answered), "B")
	set("wire.front_bytes_per_query", ratio(float64(after.clientBytes-before.clientBytes), answered), "B")
	set("runtime.alloc_kb_per_query", ratio((rt1.allocBytes-rt0.allocBytes)/1024, untracedAttempted), "KB")
	set("runtime.mallocs_per_query", ratio(rt1.allocObjects-rt0.allocObjects, untracedAttempted), "count")
	set("runtime.gc_cpu_share", ratio(rt1.gcCPU-rt0.gcCPU, usedCPU), "share")
	set("load.lag_p99_ms", ms(quantile(lags, 0.99)), "ms")
	set("load.offered", untracedAttempted, "count")
	set("trace.overhead_p50_ms", ms(quantile(okLatencies(pt), 0.5))-ms(quantile(okLatencies(pu), 0.5)), "ms")

	return m
}
