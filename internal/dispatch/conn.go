package dispatch

import (
	"context"

	"starts/internal/client"
	"starts/internal/meta"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/source"
)

// Conn routes every call on a source connection through a Dispatcher:
// calls queue per source, run on the source's bounded workers, and
// identical in-flight calls coalesce into one. Compose it as the
// outermost structural layer — outside the per-source cache, so
// concurrent identical misses (and harvests) are deduplicated before
// they can stampede anything below.
//
// Over a batch-capable source, queries submit through SubmitMux, so
// distinct queries queued for the source multiplex into single wire
// calls when a worker drains the queue — the dispatcher's MaxBatchWire
// bound and the inner QueryBatch seam together turn one RTT per
// sub-query into one RTT per drain.
type Conn struct {
	inner client.Conn
	d     *Dispatcher
	lim   Limits
	keyer qcache.Keyer
	exec  MuxExec // BatchExec(inner) for a batch-capable inner, else nil
}

// WrapConn wraps inner so its traffic flows through d under the source's
// limits (zero Limits fields take the dispatcher's defaults). The
// wrapper is batch-capable exactly when inner is (client.Keep).
func WrapConn(inner client.Conn, d *Dispatcher, lim Limits) client.Conn {
	c := &Conn{inner: inner, d: d, lim: lim, keyer: qcache.Keyer{Scope: "dispatch/" + inner.SourceID()}}
	if bc, ok := inner.(client.BatchConn); ok {
		c.exec = BatchExec(bc)
	}
	return client.Keep(inner, c)
}

// BatchExec is the group executor that runs a drained group of queued
// *query.Query items as one QueryBatch wire call on bc. It leaves the
// shape check (one value and one error per item) to the dispatcher.
func BatchExec(bc client.BatchConn) MuxExec {
	return func(ctx context.Context, items []any) ([]any, []error) {
		qs := make([]*query.Query, len(items))
		for i, it := range items {
			qs[i] = it.(*query.Query)
		}
		rs, errs := bc.QueryBatch(ctx, qs)
		vals := make([]any, len(rs))
		for i, r := range rs {
			vals[i] = r
		}
		return vals, errs
	}
}

// SourceID identifies the wrapped source.
func (c *Conn) SourceID() string { return c.inner.SourceID() }

// do submits one call and waits for its (possibly shared) result.
func (c *Conn) do(ctx context.Context, key string, fn Task) (any, error) {
	t, err := c.d.Submit(ctx, c.inner.SourceID(), key, c.lim, fn)
	if err != nil {
		return nil, err
	}
	return t.Wait(ctx)
}

// Metadata fetches the source's metadata; concurrent fetches coalesce.
func (c *Conn) Metadata(ctx context.Context) (*meta.SourceMeta, error) {
	v, err := c.do(ctx, "metadata", func(tctx context.Context) (any, error) {
		return c.inner.Metadata(tctx)
	})
	if err != nil {
		return nil, err
	}
	return v.(*meta.SourceMeta), nil
}

// Summary fetches the source's content summary; concurrent fetches
// coalesce.
func (c *Conn) Summary(ctx context.Context) (*meta.ContentSummary, error) {
	v, err := c.do(ctx, "summary", func(tctx context.Context) (any, error) {
		return c.inner.Summary(tctx)
	})
	if err != nil {
		return nil, err
	}
	return v.(*meta.ContentSummary), nil
}

// Sample fetches the source's sample-database results; concurrent
// fetches coalesce.
func (c *Conn) Sample(ctx context.Context) ([]*source.SampleEntry, error) {
	v, err := c.do(ctx, "sample", func(tctx context.Context) (any, error) {
		return c.inner.Sample(tctx)
	})
	if err != nil {
		return nil, err
	}
	return v.([]*source.SampleEntry), nil
}

// Query evaluates q at the source. Identical in-flight queries (by
// canonical fingerprint) share one wire call, and over a batch-capable
// source distinct ones share wire calls per queue drain; a shared result
// is cloned per waiter because rank merging mutates documents.
func (c *Conn) Query(ctx context.Context, q *query.Query) (*result.Results, error) {
	t, err := c.submit(ctx, q)
	if err != nil {
		return nil, err
	}
	return wait(ctx, t)
}

// QueryBatch implements client.BatchConn: each query submits through
// the mux path individually and the dispatcher regroups them (with any
// other queued work for the source) into wire calls, so an outer batch
// still honors the per-source queue bounds, coalescing and breaker
// refusal that per-item submission gets.
func (c *Conn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	tickets := make([]*Ticket, len(qs))
	for i, q := range qs {
		tickets[i], errs[i] = c.submit(ctx, q)
	}
	for i, t := range tickets {
		if t != nil {
			results[i], errs[i] = wait(ctx, t)
		}
	}
	return results, errs
}

// submit queues one query: multiplexable over a batch-capable source, a
// plain task otherwise.
func (c *Conn) submit(ctx context.Context, q *query.Query) (*Ticket, error) {
	if c.exec != nil {
		return c.d.SubmitMux(ctx, c.inner.SourceID(), c.keyer.Key(q), c.lim, q, c.exec)
	}
	return c.d.Submit(ctx, c.inner.SourceID(), c.keyer.Key(q), c.lim,
		func(tctx context.Context) (any, error) {
			return c.inner.Query(tctx, q)
		})
}

// wait collects a query ticket's result, cloning a shared one.
func wait(ctx context.Context, t *Ticket) (*result.Results, error) {
	v, err := t.Wait(ctx)
	if err != nil {
		return nil, err
	}
	res := v.(*result.Results)
	if t.Fanout() > 1 {
		res = res.Clone()
	}
	return res, nil
}
