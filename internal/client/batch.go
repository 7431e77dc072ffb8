package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"

	"starts/internal/query"
	"starts/internal/result"
	"starts/internal/soif"
)

// BatchConn is a Conn that can evaluate several queries in one wire
// call. STARTS' same-resource facility allows a single request to carry
// multiple queries for a source; a BatchConn exploits that so one round
// trip amortizes across a whole queue drain instead of paying an RTT
// per sub-query.
//
// QueryBatch returns one result or one error per input query, aligned
// by index (len(results) == len(errs) == len(qs); exactly one of
// results[i], errs[i] is non-nil). A failure of one item must not fail
// the others: transport-level breakage fills every still-unresolved
// slot, but per-item errors stay per-item.
//
// Capability rule: a middleware never adds or drops the batch
// capability. Each middleware implements QueryBatch next to Query and
// returns its wrapper through Keep, so a chain is a BatchConn exactly
// when its leaf is.
type BatchConn interface {
	Conn
	// QueryBatch evaluates qs at the source in one wire call.
	QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error)
}

// Keep returns w, the wrapper a middleware built around inner, with
// inner's batch capability: w itself when inner is a BatchConn, and w
// behind a plain Conn otherwise, so w's QueryBatch (which delegates to
// inner's) is reachable only when inner can serve it.
func Keep(inner Conn, w BatchConn) Conn {
	if _, ok := inner.(BatchConn); ok {
		return w
	}
	return struct{ Conn }{w}
}

// QueryEach evaluates qs concurrently through c's Query, one call per
// item: the batch semantics for a conn without a batch wire call. The
// slices it returns are index-aligned with qs.
func QueryEach(ctx context.Context, c Conn, qs []*query.Query) ([]*result.Results, []error) {
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q *query.Query) {
			defer wg.Done()
			results[i], errs[i] = c.Query(ctx, q)
		}(i, q)
	}
	wg.Wait()
	return results, errs
}

// splitBatchErr fills every still-unresolved slot with err. It is the
// transport-breakage rule: items already decoded off the wire keep
// their results; everything after the break fails.
func splitBatchErr(results []*result.Results, errs []error, err error) {
	for i := range errs {
		if results[i] == nil && errs[i] == nil {
			errs[i] = err
		}
	}
}

// QueryBatch submits qs in one POST to a source's batch query URL and
// stream-decodes the per-item frames as they arrive off the wire, so
// early items resolve before the server has finished the late ones.
// The returned slices are index-aligned with qs; a broken stream fails
// only the items not yet decoded.
func (c *Client) QueryBatch(ctx context.Context, url string, qs []*query.Query) ([]*result.Results, []error) {
	results := make([]*result.Results, len(qs))
	errs := make([]error, len(qs))
	if len(qs) == 0 {
		return results, errs
	}
	var body bytes.Buffer
	enc := soif.NewEncoder(&body)
	for i, q := range qs {
		o, err := q.ToSOIF()
		if err != nil {
			splitBatchErr(results, errs, fmt.Errorf("client: encoding batch query %d: %w", i, err))
			return results, errs
		}
		if err := enc.Encode(o); err != nil {
			splitBatchErr(results, errs, fmt.Errorf("client: encoding batch query %d: %w", i, err))
			return results, errs
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body.Bytes()))
	if err != nil {
		splitBatchErr(results, errs, err)
		return results, errs
	}
	req.Header.Set("Content-Type", "application/x-soif")
	resp, err := c.hc.Do(req)
	if err != nil {
		splitBatchErr(results, errs, err)
		return results, errs
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
		_, _ = io.Copy(io.Discard, resp.Body)
		splitBatchErr(results, errs, &StatusError{
			Method: req.Method, URL: req.URL.String(),
			StatusCode: resp.StatusCode, Status: resp.Status,
			Snippet: truncate(snippet),
		})
		return results, errs
	}
	c.decodeBatch(io.LimitReader(resp.Body, maxResponseBytes), qs, results, errs)
	return results, errs
}

// decodeBatch consumes a batch response stream frame by frame, filling
// the index-aligned results/errs slots. Exposed through QueryBatch; it
// is separate so tests can drive it from an arbitrary reader.
func (c *Client) decodeBatch(r io.Reader, qs []*query.Query, results []*result.Results, errs []error) {
	dec := soif.NewDecoder(r)
	seen := 0
	for seen < len(qs) {
		idx, res, itemErr, err := result.DecodeBatchItem(dec)
		if err == io.EOF {
			splitBatchErr(results, errs, fmt.Errorf("client: batch response ended after %d of %d items", seen, len(qs)))
			return
		}
		if err != nil {
			// The stream itself broke mid-frame: items already decoded
			// keep their results, everything else fails.
			splitBatchErr(results, errs, fmt.Errorf("client: batch response broke after %d of %d items: %w", seen, len(qs), err))
			return
		}
		if idx >= len(qs) {
			splitBatchErr(results, errs, fmt.Errorf("client: batch response named item %d of a %d-item request", idx, len(qs)))
			return
		}
		if results[idx] != nil || errs[idx] != nil {
			splitBatchErr(results, errs, fmt.Errorf("client: batch response repeated item %d", idx))
			return
		}
		if itemErr != nil {
			errs[idx] = itemErr
		} else {
			results[idx] = res
		}
		seen++
	}
}

// QueryBatch implements BatchConn: one wire call against the source's
// batch endpoint (the query URL with a "-batch" suffix, the convention
// the server registers).
func (h *HTTPConn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	m, err := h.meta(ctx)
	if err != nil {
		results := make([]*result.Results, len(qs))
		errs := make([]error, len(qs))
		splitBatchErr(results, errs, err)
		return results, errs
	}
	return h.client.QueryBatch(ctx, BatchURL(m.Linkage), qs)
}

// BatchURL derives a source's batch query endpoint from its (metadata-
// declared) query URL.
func BatchURL(queryURL string) string { return queryURL + "-batch" }

// QueryBatch implements BatchConn for in-process sources: items run
// concurrently, mirroring the server-side batch handler.
func (l *LocalConn) QueryBatch(ctx context.Context, qs []*query.Query) ([]*result.Results, []error) {
	return QueryEach(ctx, l, qs)
}
