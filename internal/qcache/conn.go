package qcache

import (
	"context"
	"sync"
	"time"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// Conn caches a source connection's Query results independently of any
// merged-answer cache: repeated per-source queries — from different
// merged queries that translate identically, or from a broker hierarchy
// — are served from cache with the full Do policy (coalescing,
// stale-while-revalidate, shedding). Metadata, Summary and Sample pass
// through: the metasearch core already caches harvests by DateExpires.
//
// Compose it with client.Chain so the cache sits OUTSIDE the retrier
// (retries re-run the source, never the cache — a cached failure would
// defeat them) and INSIDE the observer (cache hits still open conn spans
// and count into conn metrics):
//
//	client.Chain(conn, retryMW, cacheMW, observeMW)
//	// = observe(cache(retry(conn)))
//
// Cached results are shared between callers and must be treated as
// read-only.
//
// Over a batch-capable source, QueryBatch serves what it can from cache
// and forwards only the misses — still as one inner wire call — then
// fills the cache with each successful miss under the same
// freshness-derived TTL the per-item path uses. Hits cost no wire
// traffic at all, and a shrunken miss batch still amortizes one round
// trip. Unlike Query, batch lookups do not coalesce with in-flight fills
// or serve stale (Get is strict); the dispatch layer above already
// coalesces identical in-flight queries by fingerprint.
//
// Each cached result's lifetime comes from the source's own freshness
// metadata: the Metadata pass-through remembers the latest DateChanged /
// DateExpires, and Query derives a per-entry TTL from them with FreshFor
// (clamped by the cache's TTLFloor/TTLCeiling). Before the first harvest
// — or when the source declares neither date — entries fall back to the
// cache's Config.TTL.
type Conn struct {
	inner client.Conn
	cache *Cache
	keyer Keyer

	mu      sync.Mutex
	seen    bool
	changed time.Time
	expires time.Time
}

// WrapConn returns a caching wrapper for inner backed by cache,
// batch-capable exactly when inner is (client.Keep). Keys are scoped by
// the source ID, so sources sharing one cache never collide. A nil cache
// passes everything through.
func WrapConn(inner client.Conn, cache *Cache) client.Conn {
	return client.Keep(inner, &Conn{inner: inner, cache: cache, keyer: Keyer{Scope: "conn/" + inner.SourceID()}})
}

// SourceID implements client.Conn.
func (c *Conn) SourceID() string { return c.inner.SourceID() }

// Metadata implements client.Conn, passing through while remembering the
// source's freshness dates for Query's per-entry TTLs.
func (c *Conn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	md, err := c.inner.Metadata(ctx)
	if err == nil && md != nil {
		c.mu.Lock()
		c.seen = true
		c.changed = md.DateChanged
		c.expires = md.DateExpires
		c.mu.Unlock()
	}
	return md, err
}

// Summary implements client.Conn, passing through.
func (c *Conn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	return c.inner.Summary(ctx)
}

// Sample implements client.Conn, passing through.
func (c *Conn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	return c.inner.Sample(ctx)
}

// Query implements client.Conn, serving repeated queries from the cache.
// Each fill's entry lives as long as the source's freshness metadata says
// it should (see the type comment).
func (c *Conn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	if c.cache == nil {
		return c.inner.Query(ctx, q)
	}
	v, _, err := c.cache.DoTTL(ctx, c.keyer.Key(q), func(fctx context.Context) (any, time.Duration, error) {
		r, qerr := c.inner.Query(fctx, q)
		return r, c.freshTTL(), qerr
	})
	if err != nil {
		return nil, err
	}
	return v.(*result.Results), nil
}

// freshTTL derives the entry lifetime from the last harvested freshness
// dates; 0 (the Config.TTL fallback) before any harvest or when the
// source declares neither date.
func (c *Conn) freshTTL() time.Duration {
	c.mu.Lock()
	seen, changed, expires := c.seen, c.changed, c.expires
	c.mu.Unlock()
	if !seen {
		return 0
	}
	ttl, ok := FreshFor(changed, expires, c.cache.now())
	if !ok {
		return 0
	}
	return ttl
}

// QueryBatch implements client.BatchConn.
func (c *Conn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	if c.cache == nil {
		return c.inner.(client.BatchConn).QueryBatch(ctx, qs)
	}
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	var missIdx []int
	var missQs []*query.Query
	for i, q := range qs {
		if v, ok := c.cache.Get(c.keyer.Key(q)); ok {
			// Cached results are shared; batch consumers get the same
			// read-only contract the per-item path documents.
			results[i] = v.(*result.Results)
			continue
		}
		missIdx = append(missIdx, i)
		missQs = append(missQs, q)
	}
	if len(missQs) == 0 {
		return results, errs
	}
	mres, merrs := c.inner.(client.BatchConn).QueryBatch(ctx, missQs)
	ttl := c.freshTTL()
	for j, i := range missIdx {
		if j < len(merrs) && merrs[j] != nil {
			errs[i] = merrs[j]
			continue
		}
		if j < len(mres) {
			results[i] = mres[j]
			if mres[j] != nil {
				c.cache.PutTTL(c.keyer.Key(missQs[j]), mres[j], ttl)
			}
		}
	}
	return results, errs
}
