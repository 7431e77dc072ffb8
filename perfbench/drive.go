package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"starts/internal/query"
	"starts/internal/result"
)

// target runs one query through the system under test. It calls first
// when the first document reaches the caller, and returns the complete
// answer's documents. A degraded or internally inconsistent answer (a
// streamed prefix that disagrees with the final answer) is an error.
type target func(ctx context.Context, q *query.Query, first func()) ([]*result.Document, error)

// sample is one attempted query.
type sample struct {
	id      int // query identity, for the reference check
	latency time.Duration
	ttfr    time.Duration
	err     error
	hash    uint64
	// lag is how late the generator issued the query (open loop only).
	lag time.Duration
}

// phase is one timed window of queries.
type phase struct {
	samples []sample
	elapsed time.Duration
	// dropped counts open-loop arrivals never issued because too many
	// queries were already in flight.
	dropped int
}

func (p *phase) attempted() int { return len(p.samples) + p.dropped }

// queryTimeout bounds one query beyond the end of its window; a query
// still running then fails.
const queryTimeout = 10 * time.Second

// sampleBytes is the memory the benchmark holds for the windows' samples,
// which heap_mb leaves out: it is the benchmark's, not the program's.
func sampleBytes(phases ...*phase) uint64 {
	var n uint64
	for _, p := range phases {
		n += uint64(cap(p.samples)) * uint64(unsafe.Sizeof(sample{}))
	}
	return n
}

// call runs one query and fills in its sample, timing from t0. ctx
// carries the window's deadline, which bounds every query of the window.
func call(ctx context.Context, tgt target, id int, q *query.Query, t0 time.Time) sample {
	s := sample{id: id}
	var firstAt time.Time
	// Each arrival is its own query value, as a decoded request would be.
	qc := *q
	docs, err := tgt(ctx, &qc, func() {
		if firstAt.IsZero() {
			firstAt = time.Now()
		}
	})
	end := time.Now()
	s.latency = end.Sub(t0)
	s.ttfr = s.latency
	if !firstAt.IsZero() {
		s.ttfr = firstAt.Sub(t0)
	}
	if err != nil {
		s.err = err
		return s
	}
	s.hash = fingerprint(docs)
	return s
}

// maxInflight bounds concurrently running open-loop arrivals; an
// arrival due while this many run is dropped and counted as failed.
const maxInflight = 512

// openLoop issues queries[i] at start + i/rate, whether or not earlier
// queries completed, and times each from its due time. The schedule is
// driven by comparing the clock with each due time (not by a ticker, which
// would silently drop ticks when the generator falls behind), so a stall
// shows both as generator lag and as latency of the queries it delayed.
func openLoop(ctx context.Context, tgt target, rate float64, ids []int, queries func(int) *query.Query) *phase {
	p := &phase{samples: make([]sample, 0, len(ids))}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(float64(len(ids))/rate*float64(time.Second))+queryTimeout)
	defer cancel()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	start := time.Now()
	for i, id := range ids {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		if inflight.Load() >= maxInflight {
			p.dropped++
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func(id int, due time.Time, lag time.Duration) {
			defer wg.Done()
			defer inflight.Add(-1)
			s := call(ctx, tgt, id, queries(id), due)
			s.lag = lag
			mu.Lock()
			p.samples = append(p.samples, s)
			mu.Unlock()
		}(id, due, lag)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// closedLoop runs clients that each send their next query as soon as the
// previous one completed, for d, timing each query from when it was sent.
// next hands out query identities; it is called concurrently.
func closedLoop(ctx context.Context, tgt target, clients int, d time.Duration, next func(client int) (int, *query.Query)) *phase {
	p := &phase{}
	ctx, cancel := context.WithTimeout(ctx, d+queryTimeout)
	defer cancel()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			for time.Now().Before(stop) {
				id, q := next(c)
				local = append(local, call(ctx, tgt, id, q, time.Now()))
			}
			mu.Lock()
			p.samples = append(p.samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// errDegraded marks an answer that fell short of a clean fan-out.
var errDegraded = errors.New("degraded answer")

// errStreamMismatch marks a streamed answer whose delivered documents
// differ from its final answer.
var errStreamMismatch = errors.New("streamed documents differ from the final answer")

// sameDocs reports whether two document lists are equal by linkage and
// serialized score.
func sameDocs(a, b []*result.Document) bool {
	return len(a) == len(b) && fingerprint(a) == fingerprint(b)
}
