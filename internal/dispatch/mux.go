package dispatch

import (
	"context"
	"time"

	"starts/internal/client"
	"starts/internal/query"
)

// muxExec evaluates a drained group of queued items in one wire call.
// It must return exactly one value or error per item, index-aligned
// (exactly one of vals[i], errs[i] meaningful per item — a nil errs[i]
// means vals[i] is the item's result).
//
// One group runs one exec — the leader batch's — under a merged context
// that stays live while any member still has a waiter, so per-item
// abandonment never kills the shared call early.
type muxExec func(ctx context.Context, items []any) (vals []any, errs []error)

// SubmitQuery queues one query for conn's source and returns its
// Ticket; the ticket's value is the query's *result.Results. Identical
// in-flight queries for the source — by canonical fingerprint of the
// query — coalesce onto one wire call. Over a batch-capable conn
// (client.BatchConn) the submission is multiplexable: when a worker
// picks it up it drains further queued queries for the same source (up
// to the live MaxBatchWire bound) into one QueryBatch call, fanning the
// per-item results back to each ticket's waiters. Otherwise each query
// is its own Query call. A timeout above zero bounds that wire call
// inside the worker, independently of how long the waiters wait.
//
// Admission, shedding and Ticket semantics are Submit's. Per-item
// failure semantics survive multiplexing: each ticket resolves with its
// own item's error, and Ticket.FaultPrimary distinguishes the one member
// whose failure should feed per-call accounting (a circuit breaker) from
// members that merely shared the wire call.
func (d *Dispatcher) SubmitQuery(ctx context.Context, conn client.Conn, q *query.Query, timeout time.Duration) (*Ticket, error) {
	qu, err := d.queueFor(conn.SourceID())
	if err != nil {
		return nil, err
	}
	key := qu.keyer.Key(q)
	if bc, ok := conn.(client.BatchConn); ok {
		return qu.submit(ctx, key, nil, q, func(gctx context.Context, items []any) ([]any, []error) {
			gctx, cancel := withTimeout(gctx, timeout)
			defer cancel()
			qs := make([]*query.Query, len(items))
			for i, it := range items {
				qs[i] = it.(*query.Query)
			}
			rs, errs := bc.QueryBatch(gctx, qs)
			vals := make([]any, len(rs))
			for i, r := range rs {
				vals[i] = r
			}
			return vals, errs
		})
	}
	return qu.submit(ctx, key, func(tctx context.Context) (any, error) {
		tctx, cancel := withTimeout(tctx, timeout)
		defer cancel()
		return conn.Query(tctx, q)
	}, nil, nil)
}

// withTimeout bounds ctx by timeout when it is positive.
func withTimeout(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// FaultPrimary reports whether this ticket's failure should feed
// per-wire-call accounting (a circuit breaker's Record). It is true for
// the first failed member of each wire call (so always for a failed
// single-task batch), for a batch dropped before it ran, and for an
// unresolved batch (a waiter that timed out waiting still charges the
// source, as it did before wire multiplexing). Successful members report
// false, but a nil-error outcome should feed success accounting
// regardless — gate only the failure path on FaultPrimary.
func (t *Ticket) FaultPrimary() bool {
	if !t.resolved() {
		return true
	}
	return t.b.faultPrimary
}
