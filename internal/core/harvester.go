package core

import (
	"context"
	"time"
)

// HarvestDue refreshes every source whose harvested metadata is missing,
// marked stale by a failed refresh, already expired, or expiring within
// lead — the incremental-harvesting discipline of OAI-style repositories
// applied to STARTS metadata: instead of re-pulling the whole fleet,
// each sweep touches only the sources whose DateExpires says their turn
// has come. Refreshes run concurrently through the dispatch layer under
// the "harvest" key, so a sweep never duplicates a fetch a concurrent
// search already has in flight. It returns the per-source errors for
// the sources that were due (empty when nothing was).
func (m *Metasearcher) HarvestDue(ctx context.Context, lead time.Duration) map[string]error {
	m.mu.RLock()
	now := m.opts.Now()
	var due []string
	for _, id := range m.order {
		if harvestDue(m.entries[id], now, lead) {
			due = append(due, id)
		}
	}
	m.mu.RUnlock()
	m.metrics.Counter("starts_harvester_due_total").Add(int64(len(due)))
	errs := m.harvestIDs(ctx, due)
	out := make(map[string]error, len(due))
	for _, id := range due {
		out[id] = errs[id]
		if errs[id] != nil {
			m.metrics.Counter("starts_harvester_errors_total").Inc()
		}
	}
	return out
}

// harvestDue reports whether an entry needs a scheduled refresh at now,
// looking lead ahead so an entry expiring before the next sweep is
// renewed by this one. Entries without a DateExpires never expire and
// are only re-pulled if a failed refresh left them marked stale.
func harvestDue(e *entry, now time.Time, lead time.Duration) bool {
	if e == nil || e.stale {
		return true
	}
	exp := e.meta.DateExpires
	return !exp.IsZero() && now.Add(lead).After(exp)
}

// StartHarvester runs HarvestDue every interval until ctx ends, keeping
// source metadata and content summaries continuously fresh instead of
// re-harvesting lazily at search time. A lead of 0 defaults to twice
// the interval (an entry expiring between two sweeps is caught by the
// earlier one); an interval of 0 defaults to one minute. The returned
// channel closes when the harvester has stopped.
func (m *Metasearcher) StartHarvester(ctx context.Context, interval, lead time.Duration) <-chan struct{} {
	return every(ctx, interval, lead, false, func(lead time.Duration) {
		m.metrics.Counter("starts_harvester_ticks_total").Inc()
		m.HarvestDue(ctx, lead)
	})
}

// every runs tick every interval on its own goroutine until ctx ends —
// once more on the way out when onExit is set — and returns a channel
// that closes when it has stopped. It is the one ticker loop behind the
// metasearcher's background workers, and the home of their defaults: an
// interval of 0 means one minute, and the look-ahead lead handed to tick
// defaults to twice the interval, so an entry expiring between two
// ticks is caught by the earlier one.
func every(ctx context.Context, interval, lead time.Duration, onExit bool, tick func(lead time.Duration)) <-chan struct{} {
	if interval <= 0 {
		interval = time.Minute
	}
	if lead <= 0 {
		lead = 2 * interval
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				if onExit {
					tick(lead)
				}
				return
			case <-t.C:
				tick(lead)
			}
		}
	}()
	return done
}
