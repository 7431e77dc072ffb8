package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"starts/internal/client"
	"starts/internal/core"
	"starts/internal/obs"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// fleetSources is the number of sources in every workload's fleet.
const fleetSources = 8

// hotPool is local-hot's query pool size.
const hotPool = 64

// leafTraceCap sizes the leaf server's trace ring in traced runs, so the
// ring holds every leaf request of the traced window.
const leafTraceCap = 1 << 16

// workload is one traffic mix against one fleet shape.
type workload struct {
	name string
	// limit is the latency a query must meet to count toward
	// slo_met_share.
	limit time.Duration
	// overHTTP puts the fleet behind a leaf server.
	overHTTP bool
	// build assembles the system under test over a fleet; rec, when set,
	// turns the benchmark's timing wrappers on.
	build func(ctx context.Context, rc runConfig, f *fleet, rec *recorder, qs *querySet) (*stack, error)
	// drive runs one measured window of d against st.
	drive func(ctx context.Context, rc runConfig, st *stack, qs *querySet, ids *idCounter, d time.Duration) *phase
}

var workloads = map[string]*workload{
	// local-cold: every arrival is a distinct query, so every search
	// misses the query cache and the engines' top-k, selection,
	// translation, dispatch and merge do the work; the cache only pays its
	// miss path. Open loop at a fixed rate of about a third of capacity.
	"local-cold": {
		name:  "local-cold",
		limit: 50 * time.Millisecond,
		build: buildLocal(false),
		drive: func(ctx context.Context, rc runConfig, st *stack, qs *querySet, ids *idCounter, d time.Duration) *phase {
			n := int(rc.sz.coldRate*d.Seconds()) + 1
			list := ids.take(n)
			qs.get(list[len(list)-1])
			return openLoop(ctx, st.tgt, rc.sz.coldRate, list, qs.get)
		},
	},
	// local-hot: Zipf-skewed draws from a warmed 64-query pool, so nearly
	// every answer is a cache hit: core entry, query-cache keying and
	// lookup and answer copying do the work while the engines idle.
	// Closed loop with nproc clients.
	"local-hot": {
		name:  "local-hot",
		limit: 5 * time.Millisecond,
		build: buildLocal(true),
		drive: func(ctx context.Context, rc runConfig, st *stack, qs *querySet, _ *idCounter, d time.Duration) *phase {
			zs := zipfPickers(rc.seed, st.clients, hotPool)
			return closedLoop(ctx, st.tgt, st.clients, d, func(c int) (int, *query.Query) {
				id := int(zs[c].Uint64())
				return id, qs.get(id)
			})
		},
	},
	// http-straggler: a leaf server over the fleet, a metasearcher that
	// discovers it over HTTP with one source slowed per wire call, that
	// metasearcher published through core.Broker and server.ConnServer,
	// and clients streaming distinct queries from it. The SOIF codec, both
	// HTTP hops, dispatch wire batching and the incremental merger do the
	// work. Closed loop with 2*nproc clients.
	"http-straggler": {
		name:     "http-straggler",
		limit:    250 * time.Millisecond,
		overHTTP: true,
		build:    buildHTTP,
		drive: func(ctx context.Context, rc runConfig, st *stack, qs *querySet, ids *idCounter, d time.Duration) *phase {
			qs.get(ids.peek() + int(500*d.Seconds()))
			return closedLoop(ctx, st.tgt, st.clients, d, func(int) (int, *query.Query) {
				id := ids.next()
				return id, qs.get(id)
			})
		},
	},
}

// docs is the workload's documents per source.
func (w *workload) docs(sz sizes) int {
	if w.overHTTP {
		return sz.httpDocs
	}
	return sz.localDocs
}

// idCounter hands out fresh query ids, so no query repeats across the
// windows of one run.
type idCounter struct{ n atomic.Int64 }

func (c *idCounter) next() int { return int(c.n.Add(1) - 1) }
func (c *idCounter) peek() int { return int(c.n.Load()) }

func (c *idCounter) take(n int) []int {
	end := int(c.n.Add(int64(n)))
	ids := make([]int, n)
	for i := range ids {
		ids[i] = end - n + i
	}
	return ids
}

// fleet is the indexed sources, and for http-straggler the leaf server
// over them.
type fleet struct {
	srcs []*source.Source
	leaf *leafStack
}

func (f *fleet) close() {
	if f.leaf != nil {
		f.leaf.http.stop()
	}
}

func buildFleet(rc runConfig, w *workload, traceCap int) (*fleet, error) {
	srcs, err := buildSources(rc.seed, fleetSources, w.docs(rc.sz), false)
	if err != nil {
		return nil, err
	}
	f := &fleet{srcs: srcs}
	if w.overHTTP {
		if f.leaf, err = startLeaf(srcs, traceCap); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// stack is one system under test: the metasearcher whose counters are
// read, the call that queries it, and for http-straggler its HTTP parts.
type stack struct {
	ms      *core.Metasearcher
	tgt     target
	clients int
	// http-straggler only
	front       *frontStack
	clientTr    *http.Transport
	clientBytes *byteMeter
}

func (s *stack) close() {
	if s.front != nil {
		s.front.close()
		s.clientTr.CloseIdleConnections()
		return
	}
	s.ms.Close()
}

func buildLocal(warm bool) func(context.Context, runConfig, *fleet, *recorder, *querySet) (*stack, error) {
	return func(ctx context.Context, rc runConfig, f *fleet, rec *recorder, qs *querySet) (*stack, error) {
		ms := newMetasearcher(localConns(f.srcs), rec, 0, false)
		if err := ms.Harvest(ctx); err != nil {
			ms.Close()
			return nil, err
		}
		st := &stack{ms: ms, clients: runtime.NumCPU()}
		if !warm {
			st.tgt = streamTarget(ms, rec)
			return st, nil
		}
		// The warm pass: every pool query answered once, so the timed
		// window serves from the cache.
		for id := 0; id < hotPool; id++ {
			if _, err := ms.Search(ctx, qs.get(id)); err != nil {
				ms.Close()
				return nil, fmt.Errorf("warming query %d: %w", id, err)
			}
		}
		st.tgt = searchTarget(ms, rec)
		return st, nil
	}
}

func buildHTTP(ctx context.Context, rc runConfig, f *fleet, rec *recorder, _ *querySet) (*stack, error) {
	nproc := runtime.NumCPU()
	// One worker per source: with a handful of clients, only a source
	// whose calls queue can multiplex them into one wire call.
	front, err := startFront(ctx, f.leaf.http.url, nproc, rc.sz.stragglerDelay, 1, rec)
	if err != nil {
		return nil, err
	}
	st := &stack{ms: front.ms, front: front, clients: 2 * nproc, clientBytes: &byteMeter{}}
	var hc *http.Client
	// A streamed query holds its connection until the answer ends, so
	// each client gets one.
	st.clientTr, hc = transport(st.clients, st.clientBytes)
	if rec != nil {
		hc.Transport = &tracedTransport{inner: hc.Transport, rec: rec, name: "client.front"}
	}
	st.tgt = httpTarget(client.NewClient(hc), front.streamURL, rec)
	return st, nil
}

// streamTarget answers with SearchStream: first fires at the first
// streamed document, and the streamed documents must add up to the final
// answer.
func streamTarget(ms *core.Metasearcher, rec *recorder) target {
	return func(ctx context.Context, q *query.Query, first func()) ([]*result.Document, error) {
		var opts []core.SearchOption
		if rec != nil {
			tr := &obs.Trace{}
			var done func()
			ctx, done = rec.request(ctx, "search", q, tr)
			defer done()
			opts = append(opts, core.WithTrace(tr))
		}
		var streamed []*result.Document
		ans, err := ms.SearchStream(ctx, q, func(ev core.StreamEvent) error {
			if len(ev.Docs) > 0 {
				first()
				streamed = append(streamed, ev.Docs...)
			}
			return nil
		}, opts...)
		if err != nil {
			return nil, err
		}
		if ans.Degraded.Any() {
			return nil, fmt.Errorf("%w: %s", errDegraded, ans.Degraded)
		}
		if !sameDocs(streamed, ans.Documents) {
			return nil, errStreamMismatch
		}
		return ans.Documents, nil
	}
}

// searchTarget answers with the batch Search; time to first result is
// the latency.
func searchTarget(ms *core.Metasearcher, rec *recorder) target {
	return func(ctx context.Context, q *query.Query, _ func()) ([]*result.Document, error) {
		var opts []core.SearchOption
		if rec != nil {
			tr := &obs.Trace{}
			var done func()
			ctx, done = rec.request(ctx, "search", q, tr)
			defer done()
			opts = append(opts, core.WithTrace(tr))
		}
		ans, err := ms.Search(ctx, q, opts...)
		if err != nil {
			return nil, err
		}
		if ans.Degraded.Any() {
			return nil, fmt.Errorf("%w: %s", errDegraded, ans.Degraded)
		}
		return ans.Documents, nil
	}
}

// httpTarget streams the query from the published broker: first fires
// when the first document frame is decoded, and the document frames, if
// any, must add up to the terminal frame's answer.
func httpTarget(c *client.Client, url string, rec *recorder) target {
	return func(ctx context.Context, q *query.Query, first func()) ([]*result.Document, error) {
		if rec != nil {
			var done func()
			ctx, done = rec.request(ctx, "client.query", q, nil)
			defer done()
		}
		var streamed []*result.Document
		final, err := c.QueryStream(ctx, url, q, func(it result.StreamItem) error {
			if len(it.Docs) > 0 || (it.Final != nil && len(it.Final.Documents) > 0) {
				first()
			}
			streamed = append(streamed, it.Docs...)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(streamed) > 0 && !sameDocs(streamed, final.Documents) {
			return nil, errStreamMismatch
		}
		return final.Documents, nil
	}
}

// runConfig is one benchmark run's settings.
type runConfig struct {
	seed   int64
	window time.Duration
	traced bool
	sz     sizes
	// traceDir receives the traced run's spans; empty writes none.
	traceDir string
	log      func(format string, args ...any)
	// tamper, when set, wraps every target; the self-test uses it to
	// corrupt answers and watch the check reject them.
	tamper func(target) target
}

// warmupFor is the untimed load run before each measured window, so
// lazily built state settles first.
func warmupFor(d time.Duration) time.Duration {
	if w := d / 10; w < time.Second {
		return w
	}
	return time.Second
}

func run(ctx context.Context, w *workload, rc runConfig) (*report, error) {
	if rc.tamper == nil {
		rc.tamper = func(t target) target { return t }
	}
	qs := newQuerySet(rc.seed, fleetSources)
	ids := &idCounter{}
	if rc.traced {
		return runTraced(ctx, w, rc, qs, ids)
	}

	var (
		f      *fleet
		st     *stack
		setups []float64
	)
	for i := 0; i < rc.sz.setups; i++ {
		if st != nil {
			st.close()
			f.close()
			st, f = nil, nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = buildFleet(rc, w, 0); err != nil {
			return nil, err
		}
		if st, err = w.build(ctx, rc, f, nil, qs); err != nil {
			f.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	st.tgt = rc.tamper(st.tgt)
	warm := w.drive(ctx, rc, st, qs, ids, warmupFor(rc.window))
	runtime.GC()
	before := readCounters(st)
	p := w.drive(ctx, rc, st, qs, ids, rc.window)
	after := readCounters(st)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	st.close()
	f.close()
	st, f = nil, nil

	wrong, err := check(ctx, rc, w, qs, warm, p)
	if err != nil {
		return nil, err
	}
	if err := checkMultiplexed(w, before, after); err != nil {
		return nil, err
	}
	failed := failures(p)
	rc.log("setups_s=%v", setups)
	rc.log("window: %d attempted, %d failed (%d wrong, %d dropped)", p.attempted(), failed, wrong, p.dropped)
	logErrors(rc, warm, p)
	m := endToEnd(rc, w, p)
	m["setup_s"] = metric{median(setups), "s"}
	m["heap_mb"] = metric{float64(mem.HeapAlloc-sampleBytes(warm, p)) / (1 << 20), "MB"}
	return &report{Correct: wrong == 0, Attempted: p.attempted(), Failed: failed, Metrics: m}, nil
}

// check builds the reference fleet and compares every answer of the
// given windows with it; it returns the number of wrong answers.
func check(ctx context.Context, rc runConfig, w *workload, qs *querySet, phases ...*phase) (int, error) {
	ref, err := newReference(ctx, rc.seed, fleetSources, w.docs(rc.sz))
	if err != nil {
		return 0, err
	}
	defer ref.close()
	seen := map[int]bool{}
	var ids []int
	for _, p := range phases {
		for _, s := range p.samples {
			if s.err == nil && !seen[s.id] {
				seen[s.id] = true
				ids = append(ids, s.id)
			}
		}
	}
	want, err := ref.answers(ctx, ids, qs.get)
	if err != nil {
		return 0, err
	}
	wrong := 0
	for _, p := range phases {
		wrong += verify(p.samples, want)
	}
	return wrong, nil
}

func failures(p *phase) int {
	n := p.dropped
	for _, s := range p.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func logErrors(rc runConfig, phases ...*phase) {
	shown := 0
	for _, p := range phases {
		for _, s := range p.samples {
			if s.err != nil && shown < 5 {
				rc.log("query %d failed: %v", s.id, s.err)
				shown++
			}
		}
	}
}

// endToEnd computes the end-to-end metrics of one window. The latency
// tail is reported as slo_met_share, the share of queries answered within
// the workload's limit; the tail percentiles themselves are only logged,
// with their sample count, because at this window length they swing by
// more than any bound from run to run: a garbage-collection mark phase
// stalls every in-flight query for up to several hundred milliseconds,
// and a window holds only a few of them.
func endToEnd(rc runConfig, w *workload, p *phase) map[string]metric {
	var lat, ttfr []time.Duration
	slo := 0
	for _, s := range p.samples {
		if s.err != nil {
			continue
		}
		lat = append(lat, s.latency)
		ttfr = append(ttfr, s.ttfr)
		if s.latency <= w.limit {
			slo++
		}
	}
	att := float64(p.attempted())
	rc.log("latency from %d samples: p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms; ttfr p50=%.3fms p95=%.3fms p99=%.3fms",
		len(lat), ms(quantile(lat, 0.5)), ms(quantile(lat, 0.95)), ms(quantile(lat, 0.99)), ms(quantile(lat, 1)),
		ms(quantile(ttfr, 0.5)), ms(quantile(ttfr, 0.95)), ms(quantile(ttfr, 0.99)))
	return map[string]metric{
		"latency_p50_ms": {ms(quantile(lat, 0.50)), "ms"},
		"ttfr_p50_ms":    {ms(quantile(ttfr, 0.50)), "ms"},
		"throughput_qps": {float64(len(lat)) / p.elapsed.Seconds(), "1/s"},
		"slo_met_share":  {float64(slo) / att, "share"},
		"answered_share": {float64(len(lat)) / att, "share"},
	}
}

// writeSpans dumps a traced run's spans under rc.traceDir.
func writeSpans(rc runConfig, w *workload, rec *recorder) error {
	if rc.traceDir == "" {
		return nil
	}
	if err := os.MkdirAll(rc.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(rc.traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, rc.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	rc.log("spans written to %s", path)
	return nil
}
