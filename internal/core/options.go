package core

import (
	"time"

	"starts/internal/gloss"
	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/qcache"
)

// searchConfig is one Search call's effective configuration: the
// metasearcher's baseline Options overlaid with per-query SearchOptions.
type searchConfig struct {
	Options
	trace   *obs.Trace
	noCache bool
}

// SearchOption overrides one search's configuration without touching the
// metasearcher's shared Options, so concurrent callers can each pick a
// budget, merger or source cap for their own query:
//
//	ms.Search(ctx, q, core.WithBudget(2*time.Second), core.WithMaxSources(3))
//
// This replaces the deprecated SetSelector/SetMerger/SetMaxSources
// mutators, which raced against in-flight searches.
type SearchOption func(*searchConfig)

// WithSelector ranks sources with s for this search only.
func WithSelector(s gloss.Selector) SearchOption {
	return func(c *searchConfig) {
		if s != nil {
			c.Selector = s
		}
	}
}

// WithMerger fuses this search's per-source ranks with s.
func WithMerger(s merge.Strategy) SearchOption {
	return func(c *searchConfig) {
		if s != nil {
			c.Merger = s
		}
	}
}

// WithMaxSources bounds how many sources this search contacts (0 = all
// promising ones).
func WithMaxSources(n int) SearchOption {
	return func(c *searchConfig) { c.MaxSources = n }
}

// WithBudget bounds this whole search — harvesting plus fan-out — by d.
func WithBudget(d time.Duration) SearchOption {
	return func(c *searchConfig) { c.Budget = d }
}

// WithTimeout sets this search's per-source deadline.
func WithTimeout(d time.Duration) SearchOption {
	return func(c *searchConfig) {
		if d > 0 {
			c.Timeout = d
		}
	}
}

// WithPostFilter toggles verification mode for this search.
func WithPostFilter(on bool) SearchOption {
	return func(c *searchConfig) { c.PostFilter = on }
}

// WithCache serves this search through c, overriding (or supplying) the
// metasearcher's Options.Cache for this call only.
func WithCache(c *qcache.Cache) SearchOption {
	return func(cfg *searchConfig) { cfg.Cache = c }
}

// WithNoCache bypasses the query-result cache for this search: the full
// pipeline always runs and its answer is not stored. Use it for queries
// whose answers must reflect the sources right now.
func WithNoCache() SearchOption {
	return func(cfg *searchConfig) { cfg.noCache = true }
}

// WithTrace records this search's span tree into t (its zero value is
// fine; Search re-begins it), so the caller keeps the trace even when it
// discards the answer:
//
//	var tr obs.Trace
//	ans, err := ms.Search(ctx, q, core.WithTrace(&tr))
//	fmt.Print(tr.Snapshot().Tree())
func WithTrace(t *obs.Trace) SearchOption {
	return func(c *searchConfig) { c.trace = t }
}
