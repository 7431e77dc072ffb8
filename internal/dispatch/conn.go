package dispatch

import (
	"context"

	"starts/internal/client"
	"starts/internal/meta"
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
// Over a batch-capable source, queries submit multiplexable work
// (SubmitQuery), so distinct queries queued for the source share single
// wire calls when a worker drains the queue — the dispatcher's
// MaxBatchWire bound and the inner QueryBatch seam together turn one RTT
// per sub-query into one RTT per drain.
type Conn struct {
	inner client.Conn
	d     *Dispatcher
}

// WrapConn wraps inner so its traffic flows through d, under the
// per-source limits d was configured with. The wrapper is batch-capable
// exactly when inner is (client.Keep).
func WrapConn(inner client.Conn, d *Dispatcher) client.Conn {
	return client.Keep(inner, &Conn{inner: inner, d: d})
}

// SourceID identifies the wrapped source.
func (c *Conn) SourceID() string { return c.inner.SourceID() }

// do submits one call and waits for its (possibly shared) result.
func (c *Conn) do(ctx context.Context, key string, fn Task) (any, error) {
	t, err := c.d.Submit(ctx, c.inner.SourceID(), key, fn)
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
	t, err := c.d.SubmitQuery(ctx, c.inner, q, 0)
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
		tickets[i], errs[i] = c.d.SubmitQuery(ctx, c.inner, q, 0)
	}
	for i, t := range tickets {
		if t != nil {
			results[i], errs[i] = wait(ctx, t)
		}
	}
	return results, errs
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
