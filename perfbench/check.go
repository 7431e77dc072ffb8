package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"starts/internal/core"
	"starts/internal/corpus"
	"starts/internal/qcache"
	"starts/internal/query"
	"starts/internal/result"
)

// fingerprint hashes a ranked answer by document linkage and score, in
// rank order: two answers with equal fingerprints list the same documents
// in the same order with the same scores as they would be serialized (the
// wire format writes scores losslessly, so equal bits mean equal text).
func fingerprint(docs []*result.Document) uint64 {
	// FNV-1a, inlined so hashing an answer allocates nothing.
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, d := range docs {
		link := d.Linkage()
		for i := 0; i < len(link); i++ {
			h = (h ^ uint64(link[i])) * prime
		}
		h = (h ^ 0) * prime
		bits := math.Float64bits(d.RawScore)
		for i := 0; i < 64; i += 8 {
			h = (h ^ (bits >> i & 0xff)) * prime
		}
	}
	return h
}

// querySet hands out queries distinct by their cache identity, drawn
// from the seed's corpus workload generator. Queries are generated on
// demand, so a closed loop never runs out; ids index the set.
type querySet struct {
	g    *corpus.Generated
	seed int64

	mu    sync.Mutex
	qs    []*query.Query
	seen  map[string]bool
	chunk int64
}

func newQuerySet(seed int64, sources int) *querySet {
	// The generator needs only the universe's vocabulary, which does not
	// depend on collection sizes; a tiny universe keeps this cheap.
	g := corpus.Generate(corpus.Config{Seed: seed, NumSources: sources, DocsPerSource: 1})
	return &querySet{g: g, seed: seed, seen: map[string]bool{}}
}

// get returns query id, generating queries up to it.
func (s *querySet) get(id int) *query.Query {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.qs) <= id {
		s.chunk++
		for _, w := range corpus.Workload(s.g, corpus.WorkloadConfig{Seed: s.seed*1_000_003 + s.chunk, NumQueries: 256}) {
			key := qcache.Canonical(w.Query)
			if s.seen[key] {
				continue
			}
			s.seen[key] = true
			s.qs = append(s.qs, w.Query)
		}
	}
	return s.qs[id]
}

// zipfPickers returns one Zipf-skewed id stream over [0, n) per client.
func zipfPickers(seed int64, clients, n int) []*rand.Zipf {
	zs := make([]*rand.Zipf, clients)
	for c := range zs {
		zs[c] = rand.NewZipf(rand.New(rand.NewSource(seed*7919+int64(c))), 1.1, 1, uint64(n-1))
	}
	return zs
}

// reference answers queries with an independent fleet built from the
// same seed: every engine exhaustive (no block pruning), no query cache,
// and the batch Search path.
type reference struct {
	ms *core.Metasearcher
}

func newReference(ctx context.Context, seed int64, sources, docs int) (*reference, error) {
	srcs, err := buildSources(seed, sources, docs, true)
	if err != nil {
		return nil, err
	}
	ms := core.New(core.Options{})
	for _, c := range localConns(srcs) {
		ms.Add(c)
	}
	if err := ms.Harvest(ctx); err != nil {
		ms.Close()
		return nil, fmt.Errorf("harvesting the reference fleet: %w", err)
	}
	return &reference{ms: ms}, nil
}

func (r *reference) close() { r.ms.Close() }

// answers computes the reference fingerprint of every listed query, on
// GOMAXPROCS workers.
func (r *reference) answers(ctx context.Context, ids []int, queries func(int) *query.Query) (map[int]uint64, error) {
	out := make(map[int]uint64, len(ids))
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	work := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				ans, err := r.ms.Search(ctx, queries(id))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference answer for query %d: %w", id, err)
				}
				if err == nil {
					out[id] = fingerprint(ans.Documents)
				}
				mu.Unlock()
			}
		}()
	}
	for _, id := range ids {
		work <- id
	}
	close(work)
	wg.Wait()
	return out, firstErr
}

// errWrong marks an answer that differs from the reference.
var errWrong = errors.New("answer differs from the reference")

// verify compares every answered sample with the reference; it returns
// the number of wrong answers.
func verify(samples []sample, ref map[int]uint64) int {
	wrong := 0
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		if want, ok := ref[s.id]; !ok || want != s.hash {
			s.err = errWrong
			wrong++
		}
	}
	return wrong
}
