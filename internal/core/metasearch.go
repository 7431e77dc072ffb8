// Package core implements the metasearcher — the client the STARTS
// protocol exists to serve. It performs the paper's three metasearch
// tasks end to end: it harvests source metadata and content summaries
// (caching them until their DateExpires), chooses the best sources for
// each query with a GlOSS-style selector, translates the query per source
// from the harvested metadata, evaluates it at the chosen sources
// concurrently, and merges the returned ranks into a single answer,
// optionally verifying dropped query parts client-side.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"starts/internal/adaptive"
	"starts/internal/client"
	"starts/internal/dispatch"
	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/translate"
)

// Options configure a metasearcher.
type Options struct {
	// Selector ranks sources per query; default vGlOSS Sum(0).
	Selector gloss.Selector
	// Merger fuses per-source ranks; default TermStats re-ranking.
	Merger merge.Strategy
	// MaxSources bounds how many sources a query contacts; 0 contacts
	// every source with non-zero estimated goodness.
	MaxSources int
	// Timeout is the per-source query deadline; default 15s.
	Timeout time.Duration
	// Budget bounds one whole Search call — harvesting plus fan-out —
	// independently of the per-source Timeout; 0 sets no overall
	// deadline. With a budget, a pathological fleet degrades the answer
	// instead of stacking per-source timeouts.
	Budget time.Duration
	// Breaker, when set, is consulted before fan-out: sources it refuses
	// are skipped (reported in Answer.Degraded) and every query outcome
	// is fed back to it. resilient.NewBreaker provides one.
	Breaker BreakerGate
	// PostFilter enables verification mode: results are re-checked
	// against query parts a source could not evaluate.
	PostFilter bool
	// Metrics receives the metasearcher's counters, gauges and latency
	// histograms; nil allocates a private registry, so instrumentation is
	// always on (retrieve it with Metasearcher.Metrics). Share one
	// registry across components to get a single /metrics view.
	Metrics *obs.Registry
	// Cache, when set, serves repeated identical queries from a shared
	// query-result cache: concurrent identical queries coalesce into one
	// fan-out, expired entries are served stale while a background
	// refresh runs (reported via Answer.Degraded.StaleAnswer), and under
	// overload the cache's admission gate sheds queries with a typed
	// qcache.ErrShed instead of queueing without bound. qcache.New
	// provides one; WithNoCache bypasses it per query. Cached answers
	// are shared between callers — treat them as read-only.
	Cache *qcache.Cache
	// SourceConcurrency bounds how many wire calls one source serves at
	// once: every per-source call (queries, harvests, warm replays, SWR
	// refreshes) flows through the metasearcher's dispatch layer, where
	// each source owns this many workers. 0 takes
	// dispatch.DefaultConcurrency. A source's queue is sized on its
	// first contact; later per-search overrides do not resize it.
	SourceConcurrency int
	// QueueDepth bounds how many batches may wait per source before
	// submissions are shed with a typed dispatch.ErrQueueFull (surfaced
	// in the per-source outcome). 0 takes dispatch.DefaultQueueDepth.
	QueueDepth int
	// MaxBatchWire bounds how many distinct queued queries a dispatch
	// worker multiplexes into one wire call when a source's connection is
	// batch-capable (client.BatchConn). 0 takes
	// dispatch.DefaultMaxBatchWire; connections without batch support
	// ignore it and keep one wire call per query.
	MaxBatchWire int
	// Adaptive, when set, builds a self-tuning admission controller over
	// the dispatch layer: an AIMD loop that grows each source's
	// concurrency and queue depth while its latency stays under the
	// config's SLO and cuts them multiplicatively when it breaches (or
	// its breaker opens). The controller's Metrics, Now and Broken hook
	// are wired to this metasearcher's registry, clock and Breaker; call
	// StartAdaptive to run the loop, or Adaptive().Tick to drive it
	// manually. Nil leaves the limits static.
	Adaptive *adaptive.Config
	// Now overrides the clock, for cache-expiry tests.
	Now func() time.Time
}

// Metasearcher provides a unified query interface over many STARTS
// sources.
type Metasearcher struct {
	opts Options

	mu      sync.RWMutex
	conns   map[string]client.Conn
	order   []string
	entries map[string]*entry

	stats      *statsBook
	metrics    *obs.Registry
	workload   *qcache.Recorder
	dispatcher *dispatch.Dispatcher
	adaptive   *adaptive.Controller
}

// BreakerGate admits or refuses traffic to sources. It is satisfied by
// resilient.Breaker; core defines only the interface so the dependency
// points outward. Two optional methods are discovered by assertion:
// Open(id) bool becomes the dispatcher's fast-drain Refuse hook, and
// Release(id) is called for an admitted call that ends without a wire
// outcome (shed at the dispatch layer, coalesced onto another search's
// batch), so a half-open probe slot it holds is freed.
type BreakerGate interface {
	// Allow reports whether the source may be contacted now.
	Allow(id string) bool
	// Record feeds back a contact's outcome (nil err = success).
	Record(id string, err error)
}

// entry is one source's harvested state. Entries are immutable once
// published in Metasearcher.entries — refreshes (including stale-if-error
// marking) swap in a new entry, so readers may use one after dropping
// the lock.
type entry struct {
	meta      *meta.SourceMeta
	summary   *meta.ContentSummary
	harvested time.Time
	// stale marks an entry served past its DateExpires because a refresh
	// failed (stale-if-error): better an aging summary than no source.
	stale bool
}

// New returns a metasearcher with the given options.
func New(opts Options) *Metasearcher {
	if opts.Selector == nil {
		opts.Selector = gloss.VSum{}
	}
	if opts.Merger == nil {
		opts.Merger = merge.TermStats{}
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 15 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	// Breakers that can report their open state (resilient.Breaker can)
	// become the dispatcher's Refuse hook: batches queued for an open
	// source resolve immediately with dispatch.ErrRefused instead of
	// timing out one waiter at a time. The check is read-only, so it
	// cannot consume a half-open probe slot.
	var refuse func(string) bool
	if op, ok := opts.Breaker.(interface{ Open(id string) bool }); ok {
		refuse = op.Open
	}
	m := &Metasearcher{
		opts:     opts,
		conns:    map[string]client.Conn{},
		entries:  map[string]*entry{},
		stats:    newStatsBook(),
		metrics:  opts.Metrics,
		workload: qcache.NewRecorder(0),
		dispatcher: dispatch.New(dispatch.Config{
			Limits:  dispatch.Limits{Concurrency: opts.SourceConcurrency, QueueDepth: opts.QueueDepth, MaxBatchWire: opts.MaxBatchWire},
			Refuse:  refuse,
			Metrics: opts.Metrics,
			Now:     opts.Now,
		}),
	}
	if opts.Adaptive != nil {
		acfg := *opts.Adaptive
		// The controller reads the dispatcher's per-source run histograms,
		// so it must share the dispatcher's registry regardless of what the
		// config carried.
		acfg.Metrics = opts.Metrics
		if acfg.Now == nil {
			acfg.Now = opts.Now
		}
		if acfg.Broken == nil {
			if br, ok := opts.Breaker.(interface{ Broken(id string) bool }); ok {
				acfg.Broken = br.Broken
			} else if refuse != nil {
				acfg.Broken = refuse
			}
		}
		m.adaptive = adaptive.New(m.dispatcher, acfg)
	}
	return m
}

// Dispatcher returns the per-source dispatch layer all of this
// metasearcher's source traffic flows through.
func (m *Metasearcher) Dispatcher() *dispatch.Dispatcher { return m.dispatcher }

// Adaptive returns the admission controller built from Options.Adaptive,
// or nil when adaptive limits are not configured.
func (m *Metasearcher) Adaptive() *adaptive.Controller { return m.adaptive }

// StartAdaptive runs the adaptive admission control loop until ctx ends;
// the returned channel closes when the loop has stopped. Without
// Options.Adaptive it is a no-op returning an already-closed channel.
func (m *Metasearcher) StartAdaptive(ctx context.Context) <-chan struct{} {
	if m.adaptive == nil {
		done := make(chan struct{})
		close(done)
		return done
	}
	return m.adaptive.Start(ctx)
}

// DispatchStats reports every source queue's dispatch state and
// counters, sorted by source ID.
func (m *Metasearcher) DispatchStats() []dispatch.QueueStat { return m.dispatcher.Snapshot() }

// Close stops the dispatch layer: queued work drains, new searches fail
// with dispatch.ErrClosed. Call it when discarding a metasearcher whose
// process keeps running, so per-source workers do not linger.
func (m *Metasearcher) Close() { m.dispatcher.Close() }

// Metrics returns the registry this metasearcher records into.
func (m *Metasearcher) Metrics() *obs.Registry { return m.metrics }

// Add registers a source connection. Re-adding an ID replaces the
// connection and invalidates its harvested state.
func (m *Metasearcher) Add(c client.Conn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := c.SourceID()
	if _, known := m.conns[id]; !known {
		m.order = append(m.order, id)
	}
	m.conns[id] = c
	delete(m.entries, id)
	m.metrics.Gauge("starts_sources_registered").Set(int64(len(m.conns)))
}

// SourceIDs lists registered sources in registration order.
func (m *Metasearcher) SourceIDs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]string(nil), m.order...)
}

// expired reports whether a harvested entry must be refreshed.
func (m *Metasearcher) expired(e *entry) bool {
	if e == nil {
		return true
	}
	exp := e.meta.DateExpires
	return !exp.IsZero() && m.opts.Now().After(exp)
}

// Harvest fetches metadata and content summaries for every source whose
// cached copy is missing or expired (per its DateExpires), concurrently
// through the dispatch layer. It returns the first error encountered,
// after attempting all sources.
func (m *Metasearcher) Harvest(ctx context.Context) error {
	m.mu.RLock()
	lim := dispatch.Limits{Concurrency: m.opts.SourceConcurrency, QueueDepth: m.opts.QueueDepth, MaxBatchWire: m.opts.MaxBatchWire}
	m.mu.RUnlock()
	for _, err := range m.harvestAll(ctx, lim) {
		if err != nil {
			return err
		}
	}
	return nil
}

// harvestAll refreshes every stale source and returns the per-source
// errors; healthy sources are cached regardless of their siblings. Each
// refresh is submitted to the source's dispatch queue under the key
// "harvest", so concurrent searches that both find a source stale share
// one harvest instead of racing duplicate fetches at it.
func (m *Metasearcher) harvestAll(ctx context.Context, lim dispatch.Limits) map[string]error {
	m.mu.RLock()
	total := len(m.order)
	var stale []string
	for _, id := range m.order {
		if m.expired(m.entries[id]) {
			stale = append(stale, id)
		}
	}
	m.mu.RUnlock()
	m.metrics.Counter("starts_harvest_cache_hits_total").Add(int64(total - len(stale)))
	m.metrics.Counter("starts_harvest_cache_misses_total").Add(int64(len(stale)))
	return m.harvestIDs(ctx, lim, stale)
}

// harvestIDs refreshes the given sources concurrently through the
// dispatch layer (key "harvest", so concurrent searches and the
// scheduled harvester share one fetch per source) and returns the
// per-source errors.
func (m *Metasearcher) harvestIDs(ctx context.Context, lim dispatch.Limits, ids []string) map[string]error {
	out := map[string]error{}
	tickets := make(map[string]*dispatch.Ticket, len(ids))
	for _, id := range ids {
		id := id
		t, err := m.dispatcher.Submit(ctx, id, "harvest", lim,
			func(tctx context.Context) (any, error) {
				return nil, m.harvestOne(tctx, id)
			})
		if err != nil {
			out[id] = err
			continue
		}
		tickets[id] = t
	}
	// All submitted harvests run concurrently on their sources' workers;
	// waiting for them in turn costs only the slowest one.
	for _, id := range ids {
		t := tickets[id]
		if t == nil {
			continue
		}
		if _, err := t.Wait(ctx); err != nil {
			out[id] = err
		}
	}
	return out
}

func (m *Metasearcher) harvestOne(ctx context.Context, id string) (err error) {
	sp := obs.SpanFrom(ctx).Child("harvest " + id)
	sp.SetSource(id)
	defer func() { sp.End(err) }()
	m.mu.RLock()
	conn := m.conns[id]
	m.mu.RUnlock()
	if conn == nil {
		return fmt.Errorf("core: unknown source %q", id)
	}
	ctx = obs.WithSpan(ctx, sp)
	md, err := conn.Metadata(ctx)
	if err != nil {
		m.keepStale(id)
		return fmt.Errorf("core: harvesting metadata of %s: %w", id, err)
	}
	sum, err := conn.Summary(ctx)
	if err != nil {
		m.keepStale(id)
		return fmt.Errorf("core: harvesting summary of %s: %w", id, err)
	}
	m.mu.Lock()
	m.entries[id] = &entry{meta: md, summary: sum, harvested: m.opts.Now()}
	m.mu.Unlock()
	return nil
}

// keepStale implements stale-if-error harvesting: when a refresh fails
// but an old entry exists, the old entry stays in service marked stale.
// Entries are immutable after publish, so marking means swapping in a
// copy.
func (m *Metasearcher) keepStale(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[id]; e != nil && !e.stale {
		stale := *e
		stale.stale = true
		m.entries[id] = &stale
	}
}

// Harvested returns the cached metadata and summary for a source.
func (m *Metasearcher) Harvested(id string) (*meta.SourceMeta, *meta.ContentSummary, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	e, ok := m.entries[id]
	if !ok {
		return nil, nil, false
	}
	return e.meta, e.summary, true
}

// SourceOutcome records one contacted source's part of an answer.
type SourceOutcome struct {
	// Sent is the translated query actually submitted.
	Sent *query.Query
	// Report describes what translation dropped.
	Report *translate.Report
	// Results are the source's results (nil on error).
	Results *result.Results
	// Err is the per-source failure, if any; other sources still answer.
	Err error
	// Elapsed is the source's response time.
	Elapsed time.Duration
	// Stale marks an outcome computed from metadata kept past its
	// DateExpires because a refresh failed (stale-if-error).
	Stale bool
}

// Degradation reports how an answer fell short of a clean fan-out, so
// callers can tell a complete answer from a best-effort one. All lists
// are sorted by source ID.
type Degradation struct {
	// Skipped lists sources not contacted because their circuit breaker
	// refused traffic.
	Skipped []string
	// Stale lists contacted sources answered from metadata kept past its
	// DateExpires because a refresh failed.
	Stale []string
	// Failed lists contacted sources whose query failed.
	Failed []string
	// HarvestFailed lists sources with no usable harvest, not even a
	// stale one.
	HarvestFailed []string
	// StaleAnswer marks a whole answer served from the query-result
	// cache past its TTL while a background refresh runs
	// (stale-while-revalidate): every document may be out of date, but
	// the user got an instant answer instead of waiting out a fan-out.
	StaleAnswer bool
}

// Any reports whether the answer degraded at all.
func (d Degradation) Any() bool {
	return d.StaleAnswer ||
		len(d.Skipped)+len(d.Stale)+len(d.Failed)+len(d.HarvestFailed) > 0
}

// String summarizes the degradation for logs and shells.
func (d Degradation) String() string {
	if !d.Any() {
		return "none"
	}
	s := fmt.Sprintf("skipped=%v stale=%v failed=%v harvest-failed=%v",
		d.Skipped, d.Stale, d.Failed, d.HarvestFailed)
	if d.StaleAnswer {
		s += " stale-answer=true"
	}
	return s
}

// Answer is a merged metasearch result.
type Answer struct {
	// Documents is the fused rank, best first.
	Documents []*result.Document
	// Selected lists every source in estimated-goodness order, including
	// those not contacted.
	Selected []gloss.Ranked
	// Contacted lists the sources queried, in selection order.
	Contacted []string
	// PerSource holds each contacted source's outcome.
	PerSource map[string]*SourceOutcome
	// Unverifiable lists dropped terms verification mode could not check.
	Unverifiable []query.Term
	// Degraded reports skipped, stale and failed sources.
	Degraded Degradation
	// Trace is the search's span tree: harvest, select, translate,
	// per-source fan-out and merge, each timed and annotated. It is always
	// set; pass WithTrace to keep the trace when Search fails.
	Trace *obs.Trace
}

// Search runs the full metasearch pipeline for a query. Sources must have
// been harvested first (Search harvests lazily if needed). Per-source
// failures are recorded in the answer, not returned as errors; Search only
// fails if the query is invalid or no source could be contacted.
//
// Per-query SearchOptions override the constructor baseline for this call
// only; the shared Options are never mutated. Every search records a
// Trace (five timed stages: harvest, select, translate, per-source
// fan-out, merge — plus a "cache" stage when a query cache is configured)
// into Answer.Trace — or into a caller-owned trace via WithTrace — and
// counts into the metasearcher's metrics registry.
//
// With Options.Cache set (and not bypassed by WithNoCache), repeated
// identical queries are answered from cache: fresh hits skip the fan-out
// entirely, concurrent identical queries coalesce into one fan-out, and
// expired entries are served stale (Answer.Degraded.StaleAnswer) while a
// background refresh runs. Under overload the cache's admission gate
// rejects queries with an error satisfying errors.Is(err, qcache.ErrShed)
// within its queue timeout. Cached answers are shared — treat them as
// read-only.
func (m *Metasearcher) Search(ctx context.Context, q *query.Query, sopts ...SearchOption) (*Answer, error) {
	return m.searchStream(ctx, q, nil, sopts...)
}

// searchStream is the shared body of Search and SearchStream: the batch
// path is simply a stream with no sink (a nil emitter), so both run the
// identical pipeline and middleware chain.
func (m *Metasearcher) searchStream(ctx context.Context, q *query.Query, sink StreamSink, sopts ...SearchOption) (*Answer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	cfg := searchConfig{Options: m.opts}
	m.mu.RUnlock()
	for _, o := range sopts {
		if o != nil {
			o(&cfg)
		}
	}
	opts := cfg.Options

	var em *emitter
	if sink != nil {
		em = m.newEmitter(sink, opts)
		// The emitter dies with this call: a background refresh that
		// shares this query's fill later must not reach the sink.
		defer em.disarm()
		m.metrics.Counter(obs.MStreamSearches).Inc()
	}

	tr := cfg.trace
	if tr == nil {
		tr = &obs.Trace{}
	}
	tr.Begin(describeQuery(q))
	defer tr.Finish()
	ctx = obs.WithTrace(obs.WithMetrics(ctx, m.metrics), tr)
	m.metrics.Counter("starts_searches_total").Inc()
	// The injected clock times the search too, so frozen-clock freshness
	// tests observe deterministic (zero) latencies instead of real ones.
	searchStart := opts.Now()
	defer func() {
		m.metrics.Histogram("starts_search_seconds").Observe(opts.Now().Sub(searchStart))
	}()

	cache := opts.Cache
	if cfg.noCache {
		cache = nil
	}
	if cache == nil {
		return m.run(ctx, q, opts, em)
	}
	if em != nil {
		// The emitter travels to the fill by context: a leading fill runs
		// synchronously on this context and streams; background refreshes
		// run detached, find no emitter, and stay silent.
		ctx = withEmitter(ctx, em)
	}
	return m.searchCached(ctx, tr, q, opts, cache, em)
}

// searchCached is the cache-fronted Search path: it fingerprints the
// query, asks the cache, and only on a miss runs the full pipeline (as
// the coalescing flight's leader). The entry's lifetime comes from the
// answering sources' own freshness metadata (see answerTTL). The "cache"
// span annotates how the call was served, and every serve is recorded in
// the warm-start workload.
func (m *Metasearcher) searchCached(ctx context.Context, tr *obs.Trace, q *query.Query, opts Options, cache *qcache.Cache, em *emitter) (*Answer, error) {
	csp := tr.StartSpan("cache")
	key := m.cacheKey(q, opts)
	csp.Annotate("key", key)
	m.recordWorkload(key, q)
	v, outcome, err := cache.DoTTL(ctx, key, m.fillFor(q, opts))
	csp.Annotate("outcome", outcome.String())
	csp.End(err)
	if err != nil {
		return nil, err
	}
	ans := v.(*Answer)
	if outcome == qcache.Filled {
		// This call ran the pipeline itself; the answer already carries
		// this search's trace, and a streaming call already emitted
		// inside run (the fill found its emitter on the context).
		return ans, nil
	}
	// Hit, stale serve or coalesced follower: the shared answer arrived
	// whole, so a streaming call replays it as one terminal event.
	cp := ans.cachedCopy(tr, outcome == qcache.Stale)
	em.replay(cp)
	return cp, nil
}

// fillFor builds the cache fill that runs the full pipeline for q under
// opts and names the answer's own lifetime. It is shared by the
// cache-fronted Search path, its stale-while-revalidate refreshes, and
// the proactive refresher — every one of them fans out through the
// dispatch layer, so background refreshes respect the same per-source
// bounds as foreground searches.
func (m *Metasearcher) fillFor(q *query.Query, opts Options) qcache.TTLFill {
	return func(fctx context.Context) (any, time.Duration, error) {
		if obs.TraceFrom(fctx) == nil {
			// Background refresh: the triggering request's trace is long
			// finished, so the refresh runs under its own private trace
			// and the shared registry.
			ftr := obs.NewTrace("refresh " + describeQuery(q))
			defer ftr.Finish()
			fctx = obs.WithTrace(obs.WithMetrics(fctx, m.metrics), ftr)
		}
		// A leading fill runs on the searching caller's context and finds
		// its emitter there; detached background refreshes find nil and
		// run as plain batch searches.
		ans, err := m.run(fctx, q, opts, emitterFrom(fctx))
		if err != nil {
			return nil, 0, err
		}
		return ans, m.answerTTL(ans, opts), nil
	}
}

// answerTTL derives a merged answer's cache lifetime from the freshness
// metadata of the sources that produced it: the minimum qcache.FreshFor
// across the contacted sources, so the answer expires when its most
// volatile ingredient does. Sources declaring neither DateExpires nor
// DateChanged contribute nothing; if no source declares anything, 0 is
// returned and the cache falls back to its configured TTL. The cache
// clamps the result to [TTLFloor, TTLCeiling], mirroring the server's
// Cache-Control derivation for single sources.
func (m *Metasearcher) answerTTL(ans *Answer, opts Options) time.Duration {
	now := opts.Now()
	var min time.Duration
	found := false
	for _, id := range ans.Contacted {
		md, _, ok := m.Harvested(id)
		if !ok || md == nil {
			continue
		}
		ttl, ok := qcache.FreshFor(md.DateChanged, md.DateExpires, now)
		if !ok {
			continue
		}
		if !found || ttl < min {
			min, found = ttl, true
		}
	}
	if !found {
		return 0
	}
	return min
}

// recordWorkload notes one cache-fronted query in the warm-start
// workload: its fingerprint plus the Basic-1 text needed to replay it.
// Queries whose expressions do not round-trip through the parser (some
// multi-value ranking terms) are still recorded; Warm skips them with an
// error count instead of failing the replay.
func (m *Metasearcher) recordWorkload(key string, q *query.Query) {
	e := qcache.WarmEntry{Key: key, MaxResults: q.MaxResults}
	if q.Filter != nil {
		e.Filter = q.Filter.String()
	}
	if q.Ranking != nil {
		e.Ranking = q.Ranking.String()
	}
	m.workload.Record(e)
}

// Workload lists the recently served cache-fronted queries (bounded,
// deduplicated, least recently served first) for persisting across a
// restart and replaying with Warm.
func (m *Metasearcher) Workload() []qcache.WarmEntry { return m.workload.Entries() }

// CacheKey fingerprints q under the metasearcher's baseline options —
// the key Search would use for it. Exposed for warm-start bookkeeping
// and debugging.
func (m *Metasearcher) CacheKey(q *query.Query) string {
	m.mu.RLock()
	opts := m.opts
	m.mu.RUnlock()
	return m.cacheKey(q, opts)
}

// Warm replays a recorded workload through the regular cache-fronted
// Search path — every replay passes the cache's singleflight and
// admission gate — so a restarted metasearcher serves its hot queries as
// cache hits from the first request. At most concurrency replays run at
// once (qcache.DefaultWarmConcurrency if <= 0). Entries already fresh in
// the cache are skipped; entries whose recorded query no longer parses
// count as errors and are skipped. It returns an error only when no
// cache is configured.
func (m *Metasearcher) Warm(ctx context.Context, entries []qcache.WarmEntry, concurrency int) (qcache.WarmStats, error) {
	m.mu.RLock()
	cache := m.opts.Cache
	m.mu.RUnlock()
	if cache == nil {
		return qcache.WarmStats{}, fmt.Errorf("core: warm start needs Options.Cache")
	}
	stats := cache.Warm(ctx, entries, concurrency, func(rctx context.Context, e qcache.WarmEntry) error {
		q, err := warmQuery(e)
		if err != nil {
			return err
		}
		_, err = m.Search(rctx, q)
		return err
	})
	return stats, nil
}

// warmQuery reconstructs a replayable query from a workload entry's
// recorded Basic-1 text.
func warmQuery(e qcache.WarmEntry) (*query.Query, error) {
	if e.Filter == "" && e.Ranking == "" {
		return nil, fmt.Errorf("core: workload entry %q records no query text", e.Key)
	}
	// Start from the spec defaults, as interactive queries do, so the
	// replay fingerprints identically to the query it is reviving.
	q := query.New()
	if e.MaxResults != 0 {
		q.MaxResults = e.MaxResults
	}
	if e.Filter != "" {
		f, err := query.ParseFilter(e.Filter)
		if err != nil {
			return nil, fmt.Errorf("core: re-parsing workload filter: %w", err)
		}
		q.Filter = f
	}
	if e.Ranking != "" {
		r, err := query.ParseRanking(e.Ranking)
		if err != nil {
			return nil, fmt.Errorf("core: re-parsing workload ranking: %w", err)
		}
		q.Ranking = r
	}
	return q, nil
}

// cacheKey fingerprints a query together with everything outside it that
// shapes the answer: the selection and merge strategies, the source cap,
// verification mode, and the registered source set. Re-registering
// sources therefore implicitly invalidates all merged-answer entries.
func (m *Metasearcher) cacheKey(q *query.Query, opts Options) string {
	m.mu.RLock()
	ids := append([]string(nil), m.order...)
	m.mu.RUnlock()
	sort.Strings(ids)
	scope := fmt.Sprintf("search/%s/%s/%d/%t/%s",
		opts.Selector.Name(), opts.Merger.Name(), opts.MaxSources, opts.PostFilter,
		strings.Join(ids, ","))
	return qcache.Keyer{Scope: scope}.Key(q)
}

// cachedCopy prepares one cached answer for one serve: a shallow copy
// whose documents and per-source outcomes are shared (read-only by
// convention) but whose Trace is the serving call's own and whose
// Degradation marks a stale serve.
func (a *Answer) cachedCopy(tr *obs.Trace, stale bool) *Answer {
	cp := *a
	cp.Trace = tr
	cp.Degraded.StaleAnswer = stale
	return &cp
}

// run executes the full metasearch pipeline — harvest, select, translate,
// fan-out, merge — under the trace and registry already on ctx. It is the
// uncached Search body and the query cache's fill function. With a
// non-nil emitter the fan-out's completion points additionally feed an
// incremental merger and stream rank-stable documents as they settle;
// the final answer is built by the same batch merge either way.
func (m *Metasearcher) run(ctx context.Context, q *query.Query, opts Options, em *emitter) (*Answer, error) {
	tr := obs.TraceFrom(ctx)
	// The budget bounds the whole call — harvesting included — while
	// Timeout below bounds each individual source.
	if opts.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Budget)
		defer cancel()
	}
	// Best-effort harvesting: an unreachable source must not block the
	// healthy ones; its error is recorded in the answer instead.
	hsp := tr.StartSpan("harvest")
	harvestErrs := m.harvestAll(obs.WithSpan(ctx, hsp),
		dispatch.Limits{Concurrency: opts.SourceConcurrency, QueueDepth: opts.QueueDepth, MaxBatchWire: opts.MaxBatchWire})
	hsp.Annotate("errors", strconv.Itoa(len(harvestErrs)))
	hsp.End(nil)

	m.mu.RLock()
	infos := make([]gloss.SourceInfo, 0, len(m.order))
	staleIDs := map[string]bool{}
	for _, id := range m.order {
		e := m.entries[id]
		if e == nil {
			continue // not harvested; its error is in harvestErrs
		}
		staleIDs[id] = e.stale
		infos = append(infos, gloss.SourceInfo{ID: id, Summary: e.summary, Meta: e.meta})
	}
	m.mu.RUnlock()
	if len(infos) == 0 {
		if len(harvestErrs) > 0 {
			return nil, fmt.Errorf("core: no source could be harvested: %w", joinSorted(harvestErrs))
		}
		return nil, fmt.Errorf("core: no sources registered")
	}

	ssp := tr.StartSpan("select")
	ranked := opts.Selector.Rank(q, infos)
	contacted := pick(ranked, opts.MaxSources)
	ssp.Annotate("selector", opts.Selector.Name())
	ssp.Annotate("candidates", strconv.Itoa(len(ranked)))
	ssp.Annotate("picked", strconv.Itoa(len(contacted)))
	ssp.End(nil)
	if len(contacted) == 0 {
		return nil, fmt.Errorf("core: no promising sources for query (of %d registered)", len(infos))
	}

	answer := &Answer{Selected: ranked, PerSource: map[string]*SourceOutcome{}, Trace: tr}
	for id, err := range harvestErrs {
		answer.PerSource[id] = &SourceOutcome{Err: fmt.Errorf("core: harvesting %s: %w", id, err)}
		if !staleIDs[id] {
			answer.Degraded.HarvestFailed = append(answer.Degraded.HarvestFailed, id)
		}
	}
	// Consult the breaker before fan-out: refused sources are skipped,
	// degrading the answer instead of waiting out another timeout.
	if opts.Breaker != nil {
		admitted := contacted[:0]
		for _, id := range contacted {
			if opts.Breaker.Allow(id) {
				admitted = append(admitted, id)
				continue
			}
			answer.Degraded.Skipped = append(answer.Degraded.Skipped, id)
			answer.PerSource[id] = &SourceOutcome{Err: fmt.Errorf("core: source %s skipped: circuit open", id)}
		}
		contacted = admitted
	}
	answer.Contacted = contacted

	plans := m.translateAll(tr, q, contacted)

	// The harvested context is snapshotted once, before fan-out, and used
	// for both the incremental merger's roster and the final merge inputs
	// — a concurrent re-harvest swapping an entry mid-search must not make
	// streamed and final scores disagree.
	type harvested struct {
		md  *meta.SourceMeta
		sum *meta.ContentSummary
	}
	ctxs := make([]harvested, len(contacted))
	for i, id := range contacted {
		ctxs[i].md, ctxs[i].sum, _ = m.Harvested(id)
	}
	var inc *merge.Incremental
	if em != nil && len(contacted) > 0 {
		roster := make([]merge.StreamSource, len(contacted))
		for i, id := range contacted {
			roster[i] = merge.StreamSource{SourceID: id, Meta: ctxs[i].md, Summary: ctxs[i].sum}
		}
		inc = merge.NewIncremental(opts.Merger, q, roster)
	}

	// onDone runs serialized at each source's completion (fanOut holds
	// its mutex): post-filtering and degradation accounting move here so
	// stream events see them as they happen; the batch path shares the
	// exact same code with the streaming steps skipped.
	unverified := make(map[string][]query.Term, len(contacted))
	onDone := func(slot int, id string, oc *SourceOutcome) {
		if oc.Stale {
			answer.Degraded.Stale = append(answer.Degraded.Stale, id)
		}
		ok := oc.Err == nil && oc.Results != nil
		if !ok {
			if oc.Err != nil {
				answer.Degraded.Failed = append(answer.Degraded.Failed, id)
			}
		} else if opts.PostFilter && oc.Report != nil && len(oc.Report.DroppedTerms) > 0 {
			kept, unver := translate.PostFilter(oc.Results.Documents, oc.Report.DroppedTerms)
			oc.Results.Documents = kept
			unverified[id] = unver
		}
		if inc == nil {
			return
		}
		rank := inc.Emitted()
		var docs []*result.Document
		if ok {
			docs = inc.Offer(slot, oc.Results)
		} else {
			docs = inc.Fail(slot)
		}
		em.emit(StreamEvent{
			Docs: docs, Rank: rank, SourceID: id, Outcome: oc,
			Degraded: answer.Degraded.snapshot(),
		})
	}
	outcomes := m.fanOut(ctx, contacted, plans, opts, onDone)

	msp := tr.StartSpan("merge")
	var inputs []merge.SourceResult
	for i, id := range contacted {
		oc := outcomes[id]
		answer.PerSource[id] = oc
		if oc.Err != nil || oc.Results == nil {
			continue
		}
		answer.Unverifiable = append(answer.Unverifiable, unverified[id]...)
		inputs = append(inputs, merge.SourceResult{
			SourceID: id, Meta: ctxs[i].md, Summary: ctxs[i].sum, Results: oc.Results,
		})
	}
	answer.Degraded.sort()
	msp.Annotate("strategy", opts.Merger.Name())
	msp.Annotate("inputs", strconv.Itoa(len(inputs)))
	if len(inputs) == 0 {
		msp.Annotate("docs", "0")
		msp.End(nil)
		// Every contacted source failed outright: surface the errors —
		// unless the breaker shed some sources, in which case a degraded
		// empty answer is the honest result and the caller can retry
		// after the cooldown.
		failures := map[string]error{}
		for _, id := range contacted {
			if oc := outcomes[id]; oc.Err != nil {
				failures[id] = oc.Err
			}
		}
		if len(failures) > 0 && len(answer.Degraded.Skipped) == 0 {
			return nil, fmt.Errorf("core: all %d contacted sources failed: %w", len(contacted), joinSorted(failures))
		}
		if em != nil {
			em.emit(StreamEvent{Degraded: answer.Degraded.snapshot(), Final: answer})
		}
		return answer, nil
	}

	// The final rank always comes from the ordinary batch merge — the
	// incremental merger streamed a stable prefix of exactly this rank
	// and mutated nothing, so batch and streamed answers are
	// bit-identical.
	answer.Documents = opts.Merger.Merge(q, inputs)
	if max := q.EffectiveMaxResults(); len(answer.Documents) > max {
		answer.Documents = answer.Documents[:max]
	}
	msp.Annotate("docs", strconv.Itoa(len(answer.Documents)))
	msp.End(nil)
	m.metrics.Counter(obs.L("starts_merge_docs_total", "strategy", opts.Merger.Name())).
		Add(int64(len(answer.Documents)))
	if em != nil {
		emitted := 0
		if inc != nil {
			emitted = inc.Emitted()
			if emitted > len(answer.Documents) {
				emitted = len(answer.Documents)
			}
		}
		em.emit(StreamEvent{
			Docs: answer.Documents[emitted:], Rank: emitted,
			Degraded: answer.Degraded.snapshot(), Final: answer,
		})
	}
	return answer, nil
}

// describeQuery renders a query compactly for traces and debug pages.
func describeQuery(q *query.Query) string {
	switch {
	case q.Filter != nil && q.Ranking != nil:
		return fmt.Sprintf("filter %v ranking %v", q.Filter, q.Ranking)
	case q.Filter != nil:
		return fmt.Sprintf("filter %v", q.Filter)
	case q.Ranking != nil:
		return fmt.Sprintf("ranking %v", q.Ranking)
	}
	return "(empty)"
}

// joinSorted aggregates per-source errors deterministically, sorted by
// source ID.
func joinSorted(errsByID map[string]error) error {
	ids := make([]string, 0, len(errsByID))
	for id := range errsByID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	joined := make([]error, len(ids))
	for i, id := range ids {
		joined[i] = fmt.Errorf("%s: %w", id, errsByID[id])
	}
	return errors.Join(joined...)
}

// sort orders every degradation list by source ID.
func (d *Degradation) sort() {
	sort.Strings(d.Skipped)
	sort.Strings(d.Stale)
	sort.Strings(d.Failed)
	sort.Strings(d.HarvestFailed)
}

// pick keeps the sources worth contacting: positive estimated goodness,
// capped at maxSources. If the selector assigns no positive goodness at
// all (e.g. the random baseline), every source is eligible.
func pick(ranked []gloss.Ranked, maxSources int) []string {
	anyPositive := false
	for _, r := range ranked {
		if r.Goodness > 0 {
			anyPositive = true
			break
		}
	}
	var ids []string
	for _, r := range ranked {
		if anyPositive && r.Goodness <= 0 {
			continue
		}
		ids = append(ids, r.ID)
		if maxSources > 0 && len(ids) >= maxSources {
			break
		}
	}
	return ids
}

// sourcePlan is one contacted source's prepared fan-out work: its
// connection, harvested state and translated query — or the reason it
// cannot be queried at all.
type sourcePlan struct {
	conn   client.Conn
	stale  bool
	sent   *query.Query
	report *translate.Report
	err    error // lookup or translation failure; skips the network call
}

// translateAll runs the translation stage: each contacted source gets the
// query rewritten against its harvested metadata, under its own span, so
// a trace shows exactly what each source was asked and what was dropped.
func (m *Metasearcher) translateAll(tr *obs.Trace, q *query.Query, ids []string) map[string]*sourcePlan {
	tsp := tr.StartSpan("translate")
	defer tsp.End(nil)
	m.mu.RLock()
	conns := make(map[string]client.Conn, len(ids))
	entries := make(map[string]*entry, len(ids))
	for _, id := range ids {
		conns[id] = m.conns[id]
		entries[id] = m.entries[id]
	}
	m.mu.RUnlock()

	plans := make(map[string]*sourcePlan, len(ids))
	for _, id := range ids {
		sp := tsp.Child("translate " + id)
		sp.SetSource(id)
		p := &sourcePlan{conn: conns[id]}
		plans[id] = p
		e := entries[id]
		if p.conn == nil || e == nil {
			p.err = fmt.Errorf("core: source %q not harvested", id)
			sp.End(p.err)
			continue
		}
		p.stale = e.stale
		p.sent, p.report = translate.ForSource(q, e.meta)
		if p.sent.Filter == nil && p.sent.Ranking == nil {
			p.err = fmt.Errorf("core: nothing of the query survives translation for %s", id)
			sp.End(p.err)
			continue
		}
		if p.report != nil && !p.report.Clean() {
			sp.Annotate("dropped-terms", strconv.Itoa(len(p.report.DroppedTerms)))
		}
		sp.End(nil)
	}
	return plans
}

// fanOut queries the planned sources through the dispatch layer, each
// under its own child span of the "fanout" stage. Ownership of the
// concurrency is inverted from the pre-dispatch design: the wire calls
// run on each source's bounded worker pool (where identical sub-queries
// from concurrent searches coalesce into one call), and this search only
// keeps one cheap waiter goroutine per source so every query span ends
// at its true completion time.
//
// onDone (optional) observes each source's completion in real time,
// serialized under the fan-out mutex — this is the hook the streaming
// path hangs the incremental merger on; slot is the source's index in
// ids. fanOut still waits for every source before returning.
func (m *Metasearcher) fanOut(ctx context.Context, ids []string, plans map[string]*sourcePlan, opts Options, onDone func(slot int, id string, oc *SourceOutcome)) map[string]*SourceOutcome {
	fsp := obs.TraceFrom(ctx).StartSpan("fanout")
	defer fsp.End(nil)
	ctx = obs.WithSpan(ctx, fsp)
	outcomes := make(map[string]*SourceOutcome, len(ids))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(slot int, id string) {
			defer wg.Done()
			oc := m.queryOne(ctx, id, plans[id], opts)
			mu.Lock()
			outcomes[id] = oc
			if onDone != nil {
				onDone(slot, id, oc)
			}
			mu.Unlock()
		}(i, id)
	}
	wg.Wait()
	return outcomes
}

// batchKey fingerprints one translated sub-query for cross-search
// coalescing: identical in-flight queries destined for the same source
// share one wire call. Hashing the translated (not the original) query
// means two different user queries that translate identically for a
// source still coalesce.
func batchKey(id string, sent *query.Query) string {
	return qcache.Keyer{Scope: "dispatch/" + id}.Key(sent)
}

func (m *Metasearcher) queryOne(ctx context.Context, id string, plan *sourcePlan, opts Options) *SourceOutcome {
	oc := &SourceOutcome{Stale: plan.stale, Sent: plan.sent, Report: plan.report}
	if plan.err != nil {
		oc.Err = plan.err
		return oc
	}
	sp := obs.SpanFrom(ctx).Child("query " + id)
	sp.SetSource(id)
	if plan.stale {
		sp.Annotate("stale", "true")
	}
	// The wire call runs on the source's dispatch workers, not on this
	// goroutine; the dispatch child span records the queueing side of the
	// call (coalescing, queue wait) separately from the source's answer.
	dsp := sp.Child("dispatch")
	dsp.SetSource(id)
	conn, sent, timeout := plan.conn, plan.sent, opts.Timeout
	start := opts.Now()
	// The per-source deadline starts before Submit and is carried on the
	// submitted context, so the dispatcher's deadline-aware admission can
	// see this caller's remaining budget and refuse work that could not
	// finish in time (dispatch.ErrDeadline) instead of queueing it. The
	// batch itself detaches from this cancellation; the wire call is
	// bounded by the same timeout applied inside the task.
	wctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	lim := dispatch.Limits{Concurrency: opts.SourceConcurrency, QueueDepth: opts.QueueDepth, MaxBatchWire: opts.MaxBatchWire}
	var ticket *dispatch.Ticket
	var err error
	if bconn, ok := conn.(client.BatchConn); ok {
		// A batch-capable connection submits multiplexable work: the
		// dispatch worker drains queued sub-queries for this source and
		// issues them as ONE wire call, so a fan-out burst pays one round
		// trip per drain instead of one per query. Per-item errors come
		// back index-aligned, and the breaker gating below uses
		// Ticket.FaultPrimary so a shared wire failure counts once.
		exec := dispatch.BatchExec(bconn)
		ticket, err = m.dispatcher.SubmitMux(obs.WithSpan(wctx, sp), id, batchKey(id, sent), lim,
			sent, func(gctx context.Context, items []any) ([]any, []error) {
				// The per-source Timeout bounds the wire call itself; the
				// waiters' contexts only bound their willingness to wait.
				qctx, cancel := context.WithTimeout(gctx, timeout)
				defer cancel()
				return exec(qctx, items)
			})
	} else {
		ticket, err = m.dispatcher.Submit(obs.WithSpan(wctx, sp), id, batchKey(id, sent), lim,
			func(tctx context.Context) (any, error) {
				// The per-source Timeout bounds the wire call itself; the
				// waiters' contexts only bound their willingness to wait.
				qctx, cancel := context.WithTimeout(tctx, timeout)
				defer cancel()
				return conn.Query(qctx, sent)
			})
	}
	var res *result.Results
	led := true
	if err == nil {
		// The waiter honors the same per-source deadline the direct call
		// had — covering queue wait plus run — and the search's own
		// context (budget, cancellation). Abandoning the wait unregisters
		// this waiter; the wire call is cancelled once nobody waits.
		v, werr := ticket.Wait(wctx)
		err = werr
		led = ticket.Led()
		if v != nil {
			res = v.(*result.Results)
		}
		if d := ticket.RunFor(); d > 0 {
			oc.Elapsed = d // the shared wire call's own duration
		}
		dsp.Annotate("coalesced", strconv.FormatBool(!led))
		if n := ticket.Fanout(); n > 1 {
			dsp.Annotate("fanout", strconv.Itoa(n))
		}
	}
	if oc.Elapsed == 0 {
		oc.Elapsed = opts.Now().Sub(start)
	}
	// Dispatch-level failures (shed, fast-drained, doomed, closed) end
	// the dispatch span; wire failures belong to the query span only.
	if errors.Is(err, dispatch.ErrQueueFull) || errors.Is(err, dispatch.ErrRefused) ||
		errors.Is(err, dispatch.ErrDeadline) || errors.Is(err, dispatch.ErrClosed) {
		dsp.End(err)
	} else {
		dsp.End(nil)
	}
	sp.End(err)
	// Only the batch leader reports a wire outcome to the breaker: N
	// coalesced waiters observed one call, and dispatch-level shedding,
	// refusal or shutdown says nothing new about the source's health. The
	// breaker admitted every caller here, though, so a call with no wire
	// outcome to report must still release its claim (on breakers that
	// support it) — otherwise a half-open probe that was shed or that
	// joined another batch would leave its circuit stuck refusing traffic.
	// On the multiplexed path one wire call serves several batch members,
	// so a shared failure must Record once: only the member whose failure
	// is the call's primary fault (Ticket.FaultPrimary) charges the
	// breaker; its groupmates Release instead.
	if opts.Breaker != nil {
		if led && (err == nil || ticket == nil || ticket.FaultPrimary()) &&
			!errors.Is(err, dispatch.ErrQueueFull) && !errors.Is(err, dispatch.ErrRefused) &&
			!errors.Is(err, dispatch.ErrDeadline) && !errors.Is(err, dispatch.ErrClosed) {
			opts.Breaker.Record(id, err)
		} else if rel, ok := opts.Breaker.(interface{ Release(id string) }); ok {
			rel.Release(id)
		}
	}
	m.metrics.Counter(obs.L("starts_source_queries_total", "source", id)).Inc()
	m.metrics.Histogram(obs.L("starts_source_query_seconds", "source", id)).Observe(oc.Elapsed)
	if err != nil {
		oc.Err = fmt.Errorf("core: querying %s: %w", id, err)
		m.stats.record(id, oc.Elapsed, true, 0)
		m.metrics.Counter(obs.L("starts_source_query_errors_total", "source", id)).Inc()
		return oc
	}
	if ticket.Fanout() > 1 {
		// The batch served several waiters, so the Results value is
		// shared across searches; rank merging mutates documents (source
		// attributions, best-score promotion), so each waiter gets its
		// own copy.
		res = res.Clone()
	}
	oc.Results = res
	sp.Annotate("docs", strconv.Itoa(len(res.Documents)))
	m.stats.record(id, oc.Elapsed, false, len(res.Documents))
	return oc
}

// RankedIDs is a convenience: the IDs of a Ranked slice in order.
func RankedIDs(rs []gloss.Ranked) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}
