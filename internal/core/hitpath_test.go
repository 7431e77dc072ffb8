package core

import (
	"context"
	"testing"
	"time"

	"starts/internal/client"
	"starts/internal/engine"
	"starts/internal/index"
	"starts/internal/merge"
	"starts/internal/obs"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/source"
)

// idConn is a conn that only has an identity: enough to register a
// source and derive cache keys, never contacted.
type idConn struct {
	client.Conn
	id string
}

func (c idConn) SourceID() string { return c.id }

// TestCacheKeyGolden pins Metasearcher.CacheKey byte for byte. The keys
// were computed by the Sprintf-built scope over re-sorted source IDs that
// the memoized scope replaced; warm-start workloads persist them.
func TestCacheKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		ids  []string
		key  string
	}{
		{"defaults", Options{}, []string{"law", "cs", "med"}, "390910bd3d2268de10a16e20de2ae396"},
		{"capped-verified", Options{MaxSources: 3, PostFilter: true, Merger: merge.RawScore{}}, []string{"cs", "law"}, "e32037f31f1bc7c2260cdc37dd2454f5"},
		{"no-sources", Options{}, nil, "fe1ddc95dbb1ae688fcccd485b347368"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ms := New(tc.opts)
			defer ms.Close()
			for _, id := range tc.ids {
				ms.Add(idConn{id: id})
			}
			q := rankingQuery(t, `list((body-of-text "distributed" 0.7) (body-of-text "databases"))`)
			if got := ms.CacheKey(q); got != tc.key {
				t.Errorf("CacheKey = %s, want %s", got, tc.key)
			}
		})
	}
}

// cacheOutcome runs one search and reports how the cache served it.
func cacheOutcome(t *testing.T, ms *Metasearcher, q func() *query.Query) string {
	t.Helper()
	var tr obs.Trace
	if _, err := ms.Search(context.Background(), q(), WithTrace(&tr)); err != nil {
		t.Fatal(err)
	}
	sp := tr.Snapshot().Find("cache")
	if sp == nil {
		t.Fatal("search recorded no cache span")
	}
	outcome, _ := sp.Attr("outcome")
	return outcome
}

// TestAddInvalidatesCacheKey: registering a new source changes the cache
// scope, so merged answers computed over the old source set are not
// served for the new one; re-adding a known ID keeps the scope (and the
// cached answers) as they were.
func TestAddInvalidatesCacheKey(t *testing.T) {
	ms, _, _ := cachedFleet(t, qcache.Config{TTL: time.Hour})
	defer ms.Close()
	mk := func() *query.Query { return rankingQuery(t, `list((body-of-text "databases"))`) }

	if got := cacheOutcome(t, ms, mk); got != "miss" {
		t.Fatalf("first search outcome = %q, want miss", got)
	}
	if got := cacheOutcome(t, ms, mk); got != "hit" {
		t.Fatalf("repeat search outcome = %q, want hit", got)
	}
	before := ms.CacheKey(mk())

	ms.Add(client.NewLocalConn(oneDocSource(t, "cs"), nil))
	if got := ms.CacheKey(mk()); got != before {
		t.Fatalf("re-adding a registered ID changed the key: %s -> %s", before, got)
	}
	if got := cacheOutcome(t, ms, mk); got != "hit" {
		t.Fatalf("search after re-adding a registered ID: outcome = %q, want hit", got)
	}

	ms.Add(client.NewLocalConn(oneDocSource(t, "law"), nil))
	after := ms.CacheKey(mk())
	if after == before {
		t.Fatal("adding a new source left the cache key unchanged")
	}
	if got := cacheOutcome(t, ms, mk); got != "miss" {
		t.Fatalf("search after adding a source: outcome = %q, want miss", got)
	}
	if got := cacheOutcome(t, ms, mk); got != "hit" {
		t.Fatalf("repeat search after adding a source: outcome = %q, want hit", got)
	}
}

// TestTraceQueryText pins the trace's query description, which is now
// rendered when the trace is first read instead of on every search.
func TestTraceQueryText(t *testing.T) {
	ms, _, _ := cachedFleet(t, qcache.Config{TTL: time.Hour})
	defer ms.Close()
	both := rankingQuery(t, `list((body-of-text "distributed" 0.7) (body-of-text "databases"))`)
	var err error
	if both.Filter, err = query.ParseFilter(`((title stem "databases") and-not (author "Ullman"))`); err != nil {
		t.Fatal(err)
	}
	filterOnly := both.Clone()
	filterOnly.Ranking = nil
	rankingOnly := both.Clone()
	rankingOnly.Filter = nil
	for _, tc := range []struct {
		q    *query.Query
		want string
	}{
		{both, `filter ((title stem "databases") and-not (author "Ullman")) ranking list((body-of-text "distributed" 0.7) (body-of-text "databases"))`},
		{filterOnly, `filter ((title stem "databases") and-not (author "Ullman"))`},
		{rankingOnly, `ranking list((body-of-text "distributed" 0.7) (body-of-text "databases"))`},
	} {
		var tr obs.Trace
		if _, err := ms.Search(context.Background(), tc.q, WithTrace(&tr)); err != nil {
			t.Fatal(err)
		}
		if got := tr.Snapshot().Query; got != tc.want {
			t.Errorf("trace query = %q, want %q", got, tc.want)
		}
	}
	if got := describeQuery(query.New()); got != "(empty)" {
		t.Errorf("describeQuery(empty) = %q", got)
	}
}

// TestCacheHitAllocations bounds the cost of a cache hit: keying, lookup,
// trace and workload bookkeeping together make at most 24 allocations.
// The query is keyed, described and recorded from scratch on every call,
// so a regression to per-call text rendering shows here first.
func TestCacheHitAllocations(t *testing.T) {
	ms, _, _ := cachedFleet(t, qcache.Config{TTL: time.Hour})
	defer ms.Close()
	ctx := context.Background()
	q := rankingQuery(t, `list((body-of-text "distributed" 0.7) (body-of-text "databases"))`)
	if _, err := ms.Search(ctx, q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ms.Search(ctx, q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Errorf("cache hit made %.0f allocations, want <= 24", allocs)
	}
}

func oneDocSource(t *testing.T, id string) *source.Source {
	t.Helper()
	eng, err := engine.New(engine.NewVectorConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := source.New(id, eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&index.Document{Linkage: "http://" + id + "/a", Title: id + " paper", Body: "distributed databases"}); err != nil {
		t.Fatal(err)
	}
	return s
}
