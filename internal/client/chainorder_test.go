// Chain-composition tests live in an external test package: they compose
// the caching, retrying and observing middlewares, and resilient imports
// client (an internal test file would cycle).
package client_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/dispatch"
	"starts/internal/faulty"
	"starts/internal/meta"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/resilient"
	"starts/internal/result"
	"starts/internal/source"
)

// flakyConn fails its first Query with a retryable error, then succeeds,
// counting every attempt that reaches it.
type flakyConn struct {
	attempts atomic.Int64
}

func (c *flakyConn) SourceID() string { return "S" }
func (c *flakyConn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	return &meta.SourceMeta{SourceID: "S"}, nil
}
func (c *flakyConn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	return &meta.ContentSummary{}, nil
}
func (c *flakyConn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	return nil, nil
}
func (c *flakyConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	if c.attempts.Add(1) == 1 {
		return nil, errors.New("transient network failure")
	}
	return &result.Results{}, nil
}

// countingMW counts Query calls passing through its position in a chain.
func countingMW(n *atomic.Int64) client.Middleware {
	return func(c client.Conn) client.Conn { return &countingConn{Conn: c, n: n} }
}

type countingConn struct {
	client.Conn
	n *atomic.Int64
}

func (c *countingConn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	c.n.Add(1)
	return c.Conn.Query(ctx, q)
}

// TestChainOrderWithCache pins the composition contract for the caching
// middleware: the cache belongs OUTSIDE the retrier — a retry re-runs
// the source, never re-enters the cache — and INSIDE the observer, so
// cache hits still count into conn metrics. Each chain issues the same
// query twice against a conn whose first attempt fails retryably; the
// layer counters expose where each call was answered.
func TestChainOrderWithCache(t *testing.T) {
	policy := resilient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}

	type counts struct {
		attempts     int64 // queries reaching the source
		cacheEntries int64 // queries entering the cache layer
		observed     int64 // queries the observer saw
	}
	cases := []struct {
		name string
		// order lists middlewares innermost-first, client.Chain-style,
		// with a counter planted just outside the cache layer.
		order func(cacheMW, countMW, retryMW, observeMW client.Middleware) []client.Middleware
		want  counts
	}{
		{
			// observe(count(cache(retry(conn)))): the recommended order.
			// Call 1 misses and retries inside one cache entry; call 2 is
			// a hit and still reaches the observer.
			name: "cache-outside-retry-inside-observe",
			order: func(cacheMW, countMW, retryMW, observeMW client.Middleware) []client.Middleware {
				return []client.Middleware{retryMW, cacheMW, countMW, observeMW}
			},
			want: counts{attempts: 2, cacheEntries: 2, observed: 2},
		},
		{
			// observe(retry(count(cache(conn)))): cache wrongly inside the
			// retrier — the failed first attempt re-enters the cache on
			// retry (3 entries for 2 calls).
			name: "cache-inside-retry",
			order: func(cacheMW, countMW, retryMW, observeMW client.Middleware) []client.Middleware {
				return []client.Middleware{cacheMW, countMW, retryMW, observeMW}
			},
			want: counts{attempts: 2, cacheEntries: 3, observed: 2},
		},
		{
			// count(cache(observe(retry(conn)))): observer wrongly inside
			// the cache — the hit on call 2 never reaches it, so metrics
			// undercount served queries.
			name: "observe-inside-cache",
			order: func(cacheMW, countMW, retryMW, observeMW client.Middleware) []client.Middleware {
				return []client.Middleware{retryMW, observeMW, cacheMW, countMW}
			},
			want: counts{attempts: 2, cacheEntries: 2, observed: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &flakyConn{}
			reg := obs.NewRegistry()
			cache := qcache.New(qcache.Config{Metrics: reg})
			var cacheEntries atomic.Int64
			cacheMW := func(c client.Conn) client.Conn { return qcache.WrapConn(c, cache) }
			retryMW := func(c client.Conn) client.Conn { return resilient.Wrap(c, policy, nil) }
			observeMW := func(c client.Conn) client.Conn { return obs.WrapConn(c, reg) }

			conn := client.Chain(src, tc.order(cacheMW, countingMW(&cacheEntries), retryMW, observeMW)...)
			q := query.New()
			r, err := query.ParseRanking(`list((any "databases"))`)
			if err != nil {
				t.Fatal(err)
			}
			q.Ranking = r
			for i := 0; i < 2; i++ {
				if _, err := conn.Query(context.Background(), q); err != nil {
					t.Fatalf("query %d: %v", i+1, err)
				}
			}
			got := counts{
				attempts:     src.attempts.Load(),
				cacheEntries: cacheEntries.Load(),
				observed:     reg.Counter(obs.L("starts_conn_calls_total", "source", "S", "op", "query")).Value(),
			}
			if got != tc.want {
				t.Errorf("counts = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// batchLeaf is a batch-capable leaf conn: QueryBatch counts wire calls
// and items and can park until release closes (nil release = no gate).
type batchLeaf struct {
	flakyConn
	wireCalls atomic.Int64
	wireItems atomic.Int64
	maxItems  atomic.Int64
	release   chan struct{}
}

func (b *batchLeaf) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	rs, errs := b.QueryBatch(ctx, []*query.Query{q})
	return rs[0], errs[0]
}

func (b *batchLeaf) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	b.wireCalls.Add(1)
	b.wireItems.Add(int64(len(qs)))
	for {
		old := b.maxItems.Load()
		if int64(len(qs)) <= old || b.maxItems.CompareAndSwap(old, int64(len(qs))) {
			break
		}
	}
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	if b.release != nil {
		select {
		case <-b.release:
		case <-ctx.Done():
			for i := range errs {
				errs[i] = ctx.Err()
			}
			return results, errs
		}
	}
	for i := range qs {
		results[i] = &result.Results{Sources: []string{"S"}}
	}
	return results, errs
}

// TestChainOrderBatchCapability pins the capability rule on the
// recommended chain observe(dispatch(cache(retry(conn)))): with a
// BatchConn leaf every exported middleware passes QueryBatch through,
// so the fully wrapped conn still multiplexes — and one queue drain of
// distinct queries reaches the leaf as ONE wire call. A batch-blind
// middleware anywhere in the chain downgrades it.
func TestChainOrderBatchCapability(t *testing.T) {
	policy := resilient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}
	mkQuery := func(term string) *query.Query {
		q := query.New()
		r, err := query.ParseRanking(`list((any "` + term + `"))`)
		if err != nil {
			t.Fatal(err)
		}
		q.Ranking = r
		return q
	}

	t.Run("capability-survives-chain", func(t *testing.T) {
		src := &batchLeaf{release: make(chan struct{})}
		reg := obs.NewRegistry()
		cache := qcache.New(qcache.Config{Metrics: reg})
		d := dispatch.New(dispatch.Config{Limits: dispatch.Limits{Concurrency: 1}})
		defer d.Close()
		conn := client.Chain(src,
			func(c client.Conn) client.Conn { return resilient.Wrap(c, policy, nil) },
			func(c client.Conn) client.Conn { return qcache.WrapConn(c, cache) },
			func(c client.Conn) client.Conn { return dispatch.WrapConn(c, d, dispatch.Limits{Concurrency: 1}) },
			func(c client.Conn) client.Conn { return obs.WrapConn(c, reg) },
		)
		bc, ok := conn.(client.BatchConn)
		if !ok {
			t.Fatal("the chain dropped the batch capability")
		}

		// Park the single worker on a decoy query, queue three distinct
		// queries behind it, then open the gate: the freed worker drains
		// all three into one leaf wire call.
		decoyDone := make(chan struct{})
		go func() {
			defer close(decoyDone)
			if _, err := conn.Query(context.Background(), mkQuery("decoy")); err != nil {
				t.Errorf("decoy query: %v", err)
			}
		}()
		deadline := time.Now().Add(2 * time.Second)
		for src.wireCalls.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if src.wireCalls.Load() == 0 {
			t.Fatal("decoy query never reached the leaf")
		}

		qs := []*query.Query{mkQuery("alpha"), mkQuery("beta"), mkQuery("gamma")}
		batchDone := make(chan struct{})
		var results []*result.Results
		var errs []error
		go func() {
			defer close(batchDone)
			results, errs = bc.QueryBatch(context.Background(), qs)
		}()
		// Wait until all three sit in the source queue before releasing
		// the worker.
		for time.Now().Before(deadline) {
			depth := int64(0)
			for _, st := range d.Snapshot() {
				if st.Source == "S" {
					depth = st.Depth
				}
			}
			if depth >= 3 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		close(src.release)
		<-decoyDone
		<-batchDone

		for i, err := range errs {
			if err != nil {
				t.Fatalf("batch item %d: %v", i, err)
			}
			if results[i] == nil {
				t.Fatalf("batch item %d: nil result", i)
			}
		}
		if got := src.maxItems.Load(); got != 3 {
			t.Errorf("largest leaf wire call carried %d items, want 3 (one call per drain)", got)
		}
		if got := src.wireCalls.Load(); got != 2 {
			t.Errorf("leaf wire calls = %d, want 2 (decoy + one drained batch)", got)
		}
		// The observer saw the batch as a batch: one query-batch op and a
		// recorded wire batch size.
		if got := reg.Counter(obs.L("starts_conn_calls_total", "source", "S", "op", "query-batch")).Value(); got != 1 {
			t.Errorf("observed query-batch calls = %d, want 1", got)
		}
		for _, st := range d.Snapshot() {
			if st.Source == "S" {
				if st.WireCalls != 2 || st.WireItems != 4 {
					t.Errorf("dispatch wire stats = %d calls / %d items, want 2/4", st.WireCalls, st.WireItems)
				}
			}
		}
	})

	t.Run("batch-blind-middleware-downgrades", func(t *testing.T) {
		src := &batchLeaf{}
		var n atomic.Int64
		if _, ok := client.Chain(src, countingMW(&n)).(client.BatchConn); ok {
			t.Error("a batch-blind middleware must downgrade the chain")
		}
	})
}

// TestWrapKeepsBatchCapability pins the one capability rule on every
// middleware constructor: wrapping a batch-capable inner yields a
// client.BatchConn, wrapping a plain inner does not — a plain wrapper
// must not claim a QueryBatch it cannot serve.
func TestWrapKeepsBatchCapability(t *testing.T) {
	d := dispatch.New(dispatch.Config{})
	defer d.Close()
	for _, tc := range []struct {
		name string
		wrap client.Middleware
	}{
		{"client.Keep", func(c client.Conn) client.Conn { return client.Keep(c, &batchLeaf{}) }},
		{"obs.WrapConn", func(c client.Conn) client.Conn { return obs.WrapConn(c, obs.NewRegistry()) }},
		{"qcache.WrapConn", func(c client.Conn) client.Conn { return qcache.WrapConn(c, qcache.New(qcache.Config{})) }},
		{"dispatch.WrapConn", func(c client.Conn) client.Conn { return dispatch.WrapConn(c, d, dispatch.Limits{}) }},
		{"resilient.Wrap", func(c client.Conn) client.Conn { return resilient.Wrap(c, resilient.RetryPolicy{}, nil) }},
		{"faulty.WrapBatch", func(c client.Conn) client.Conn {
			if bc, ok := c.(client.BatchConn); ok {
				return faulty.WrapBatch(bc, faulty.Config{})
			}
			return faulty.WrapConn(c, faulty.Config{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if w := tc.wrap(&batchLeaf{}); !isBatch(w) {
				t.Errorf("wrapping a batch-capable inner gave %T, want a client.BatchConn", w)
			}
			if w := tc.wrap(&flakyConn{}); isBatch(w) {
				t.Errorf("wrapping a plain inner gave %T, which claims batch capability", w)
			}
		})
	}
}

func isBatch(c client.Conn) bool {
	_, ok := c.(client.BatchConn)
	return ok
}

// gatedConn parks every Query until release closes, counting the calls
// that reach it — the knob for holding a dispatch batch open while more
// callers join it.
type gatedConn struct {
	flakyConn
	calls   atomic.Int64
	release chan struct{}
}

func (g *gatedConn) Query(ctx context.Context, _ *query.Query) (*result.Results, error) {
	g.calls.Add(1)
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return &result.Results{}, nil
}

// TestChainOrderWithDispatch pins where the dispatching middleware
// belongs: OUTSIDE the cache (so concurrent identical misses coalesce
// into one batch before they can stampede the fill) and INSIDE the
// observer (so coalesced calls still count).
func TestChainOrderWithDispatch(t *testing.T) {
	policy := resilient.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}

	// observe(dispatch(cache(retry(conn)))): sequential traffic behaves
	// exactly as without dispatch — batches of one, retries inside one
	// cache entry, the hit never reaching the source.
	t.Run("sequential", func(t *testing.T) {
		src := &flakyConn{}
		reg := obs.NewRegistry()
		cache := qcache.New(qcache.Config{Metrics: reg})
		d := dispatch.New(dispatch.Config{})
		defer d.Close()
		conn := client.Chain(src,
			func(c client.Conn) client.Conn { return resilient.Wrap(c, policy, nil) },
			func(c client.Conn) client.Conn { return qcache.WrapConn(c, cache) },
			func(c client.Conn) client.Conn { return dispatch.WrapConn(c, d, dispatch.Limits{}) },
			func(c client.Conn) client.Conn { return obs.WrapConn(c, reg) },
		)
		q := query.New()
		r, err := query.ParseRanking(`list((any "databases"))`)
		if err != nil {
			t.Fatal(err)
		}
		q.Ranking = r
		for i := 0; i < 2; i++ {
			if _, err := conn.Query(context.Background(), q); err != nil {
				t.Fatalf("query %d: %v", i+1, err)
			}
		}
		if got := src.attempts.Load(); got != 2 {
			t.Errorf("source attempts = %d, want 2 (one retried miss, one cache hit)", got)
		}
		if got := reg.Counter(obs.L("starts_conn_calls_total", "source", "S", "op", "query")).Value(); got != 2 {
			t.Errorf("observed queries = %d, want 2", got)
		}
		for _, st := range d.Snapshot() {
			if st.Source == "S" && st.Batched != 0 {
				t.Errorf("sequential traffic batched %d calls, want 0", st.Batched)
			}
		}
	})

	// The payoff: N concurrent identical queries coalesce into ONE wire
	// call (and one cache fill) at the dispatch layer.
	t.Run("concurrent-coalescing", func(t *testing.T) {
		const callers = 8
		src := &gatedConn{release: make(chan struct{})}
		reg := obs.NewRegistry()
		cache := qcache.New(qcache.Config{Metrics: reg})
		d := dispatch.New(dispatch.Config{})
		defer d.Close()
		conn := client.Chain(src,
			func(c client.Conn) client.Conn { return resilient.Wrap(c, policy, nil) },
			func(c client.Conn) client.Conn { return qcache.WrapConn(c, cache) },
			func(c client.Conn) client.Conn { return dispatch.WrapConn(c, d, dispatch.Limits{}) },
			func(c client.Conn) client.Conn { return obs.WrapConn(c, reg) },
		)
		q := query.New()
		r, err := query.ParseRanking(`list((any "databases"))`)
		if err != nil {
			t.Fatal(err)
		}
		q.Ranking = r

		errs := make(chan error, callers)
		for i := 0; i < callers; i++ {
			go func() {
				_, err := conn.Query(context.Background(), q)
				errs <- err
			}()
		}
		// Release the gate only once all callers sit on the batch: one led,
		// the rest joined while its wire call was parked.
		deadline := time.Now().Add(2 * time.Second)
		for submitted := int64(0); submitted < callers && time.Now().Before(deadline); {
			submitted = 0
			for _, st := range d.Snapshot() {
				if st.Source == "S" {
					submitted = st.Submitted
				}
			}
			time.Sleep(time.Millisecond)
		}
		close(src.release)
		for i := 0; i < callers; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("caller %d: %v", i, err)
			}
		}
		if got := src.calls.Load(); got != 1 {
			t.Errorf("wire calls = %d, want 1 for %d concurrent identical queries", got, callers)
		}
		for _, st := range d.Snapshot() {
			if st.Source == "S" && st.Batched != callers-1 {
				t.Errorf("batched = %d, want %d", st.Batched, callers-1)
			}
		}
	})
}
