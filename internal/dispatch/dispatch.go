// Package dispatch owns all per-source traffic of a metasearcher: one
// bounded work queue plus worker pool per source, with cross-search
// batching that coalesces identical in-flight sub-queries destined for
// the same source into a single wire call whose result is fanned back to
// every waiter.
//
// The paper's metasearcher model (Figure 1) puts one logical channel
// between the metasearcher and each source; before this package the core
// spawned a fresh goroutine per (query, source) pair, so a slow source
// accumulated unbounded in-flight work and identical sub-queries were
// sent redundantly. The dispatcher inverts that ownership: each source
// owns a bounded worker pool, searches merely submit work and wait on a
// Ticket. Submission is non-blocking — a full queue sheds with a typed
// ErrQueueFull, and a submission whose remaining context budget cannot
// cover the source's observed typical service time sheds with a typed
// ErrDeadline instead of queueing doomed work — and a Refuse hook lets a
// circuit breaker fast-drain the queue of an open source instead of
// timing out each waiter. Both per-source bounds (worker count and
// queue depth) are live: Resize retunes them while traffic flows, the
// seam the adaptive admission controller (internal/adaptive) closes its
// AIMD loop through.
//
// Batching reuses the qcache singleflight shape (pending map, done
// channel, delete-before-close) one level below the answer cache: keys
// are per-source fingerprints of the translated sub-query, so two
// different user queries that translate identically for a source still
// share one wire call.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"starts/internal/obs"
	"starts/internal/qcache"
)

// Default per-source bounds, used when Limits leave a field zero.
const (
	// DefaultConcurrency is the default worker count per source.
	DefaultConcurrency = 4
	// DefaultQueueDepth is the default bound on batches waiting per
	// source before Submit sheds with ErrQueueFull.
	DefaultQueueDepth = 64
	// DefaultMaxBatchWire is the default bound on queued queries a
	// worker drains into one wire call (see SubmitQuery).
	DefaultMaxBatchWire = 16
)

// Typed dispatch failures, detectable with errors.Is.
var (
	// ErrQueueFull is returned by Submit when a source's queue is at its
	// depth bound; the caller was shed without blocking.
	ErrQueueFull = errors.New("dispatch: source queue full")
	// ErrRefused resolves a batch whose source's Refuse hook reported it
	// unavailable (typically a circuit breaker in the open state): the
	// queue drains fast instead of timing out each waiter.
	ErrRefused = errors.New("dispatch: source refused")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("dispatch: dispatcher closed")
	// ErrDeadline is returned by Submit when the caller's remaining
	// context budget cannot cover the source's observed typical (median)
	// service time: the call was doomed to time out, so it fails fast
	// instead of occupying queue and worker capacity on its way to a
	// deadline error. Submissions to an idle source are always admitted,
	// so a recovered source is re-probed instead of locked out by its own
	// history.
	ErrDeadline = errors.New("dispatch: deadline too tight for source")
)

// minRunSamples is how many recent run durations the deadline check
// needs before it trusts its service-time estimate; below it every
// submission is admitted.
const minRunSamples = 8

// runRingSize bounds the recent-run ring: large enough to smooth jitter,
// small enough that a recovered source's faster runs dominate the
// estimate within a few calls.
const runRingSize = 32

// Task is one unit of per-source work: typically a single wire call. It
// runs on a source-owned worker goroutine under a batch context that
// carries the submitting leader's trace and metrics but detaches its
// cancellation; the context ends early only when every waiter has
// abandoned the batch.
type Task func(ctx context.Context) (any, error)

// Limits bound one source's queue: how many workers serve it and how
// many batches may wait. A dispatcher sizes every queue it creates from
// its Config.Limits (zero fields take DefaultConcurrency,
// DefaultQueueDepth and DefaultMaxBatchWire); Resize is the only way to
// change a live queue, which is how an adaptive controller tightens a
// degraded source's bounds and re-opens them on recovery.
type Limits struct {
	// Concurrency is the worker count: the hard bound on the source's
	// in-flight wire calls.
	Concurrency int
	// QueueDepth bounds batches waiting for a worker.
	QueueDepth int
	// MaxBatchWire bounds how many queued queries (SubmitQuery over a
	// batch-capable conn) a worker drains into a single wire call. 1
	// disables wire batching; zero takes the default
	// (DefaultMaxBatchWire).
	MaxBatchWire int
}

// withDefaults fills l's zero fields from fallback.
func (l Limits) withDefaults(fallback Limits) Limits {
	if l.Concurrency <= 0 {
		l.Concurrency = fallback.Concurrency
	}
	if l.QueueDepth <= 0 {
		l.QueueDepth = fallback.QueueDepth
	}
	if l.MaxBatchWire <= 0 {
		l.MaxBatchWire = fallback.MaxBatchWire
	}
	return l
}

// Config configures a Dispatcher. The zero value is usable.
type Config struct {
	// Limits size every source queue the dispatcher creates.
	Limits Limits
	// Refuse, when set, is consulted before a batch runs — by the pump as
	// it takes the batch off the queue and again by the worker that runs
	// it: true resolves the batch immediately with ErrRefused. Wire a
	// circuit breaker's open-state check here so a broken source's queue
	// drains fast. It must be safe for concurrent use.
	Refuse func(source string) bool
	// Metrics receives the starts_dispatch_* counters, gauges and
	// histograms; nil allocates a private registry.
	Metrics *obs.Registry
	// Now overrides the clock for wait/run timing, so tests with frozen
	// clocks stay deterministic.
	Now func() time.Time
}

// Dispatcher routes per-source work through bounded, batching queues.
// All methods are safe for concurrent use.
type Dispatcher struct {
	cfg Config

	mu     sync.Mutex
	queues map[string]*queue
	closed bool
}

// New returns a dispatcher for the config.
func New(cfg Config) *Dispatcher {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	cfg.Limits = cfg.Limits.withDefaults(Limits{
		Concurrency:  DefaultConcurrency,
		QueueDepth:   DefaultQueueDepth,
		MaxBatchWire: DefaultMaxBatchWire,
	})
	return &Dispatcher{cfg: cfg, queues: map[string]*queue{}}
}

// Metrics returns the registry the dispatcher records into.
func (d *Dispatcher) Metrics() *obs.Registry { return d.cfg.Metrics }

// Submit enqueues fn for the source, or joins an in-flight batch with
// the same non-empty key (one wire call fans back to all waiters; keys
// must identify the work, e.g. a fingerprint of the translated query —
// an empty key never coalesces). It never blocks: a queue at its depth
// bound sheds with ErrQueueFull. On success the caller must consume the
// returned Ticket with Wait.
func (d *Dispatcher) Submit(ctx context.Context, source, key string, fn Task) (*Ticket, error) {
	q, err := d.queueFor(source)
	if err != nil {
		return nil, err
	}
	return q.submit(ctx, key, fn, nil, nil)
}

// queueFor returns the source's queue, creating it (and starting its
// pump) sized by the dispatcher's Limits on first touch.
func (d *Dispatcher) queueFor(source string) (*queue, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	q := d.queues[source]
	if q == nil {
		q = newQueue(d, source, d.cfg.Limits)
		d.queues[source] = q
		go q.pump()
	}
	return q, nil
}

// Resize changes a source's live limits: Concurrency adjusts the
// in-flight bound (a shrink below the current in-flight count starts no
// new tasks until enough running ones finish; none are interrupted) and
// QueueDepth adjusts the admission bound (a shrink sheds new submissions
// until the queue drains below it; queued batches are kept). Zero fields
// take the dispatcher's configured defaults. QueueDepth is clamped to
// the queue's fixed channel capacity (at least queueHardCap), chosen at
// creation. It reports whether the source had a queue to resize — only
// sources already submitted to can be resized.
func (d *Dispatcher) Resize(source string, lim Limits) bool {
	d.mu.Lock()
	q := d.queues[source]
	closed := d.closed
	d.mu.Unlock()
	if q == nil || closed {
		return false
	}
	q.resize(lim.withDefaults(d.cfg.Limits))
	return true
}

// pool is a source's resizable set of worker slots together with the
// count of batches queued for them. acquire blocks while held >= limit,
// and setLimit retunes the bound live — lowering it below the held count
// blocks new acquires until enough releases land, without interrupting
// current holders. One lock covers both counts, so a batch moving from
// the queue to a slot is never seen in both places (or in neither) by
// the admission check.
type pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	limit  int
	held   int
	queued int // batches admitted but not yet holding a slot or dropped
}

func newPool(limit int) *pool {
	p := &pool{limit: limit}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// enqueue admits one more queued batch unless the batches no free slot
// covers already reach bound: batches a free slot is about to take are
// "running imminently", not waiting, and do not consume the bound.
func (p *pool) enqueue(bound int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.queued-max(p.limit-p.held, 0) >= bound {
		return false
	}
	p.queued++
	return true
}

// unqueue forgets a queued batch that will never take a slot.
func (p *pool) unqueue() {
	p.mu.Lock()
	p.queued--
	p.mu.Unlock()
}

// acquire moves one queued batch into a slot, blocking until one frees.
func (p *pool) acquire() {
	p.mu.Lock()
	for p.held >= p.limit {
		p.cond.Wait()
	}
	p.held++
	p.queued--
	p.mu.Unlock()
}

// release gives a slot back: vacate frees it for the admission check
// and for an acquire not yet parked, and wake rouses a parked one.
func (p *pool) release() {
	p.vacate()
	p.wake()
}

func (p *pool) vacate() {
	p.mu.Lock()
	p.held--
	p.mu.Unlock()
}

func (p *pool) wake() { p.cond.Signal() }

func (p *pool) setLimit(n int) {
	if n < 1 {
		n = 1
	}
	p.mu.Lock()
	grew := n > p.limit
	p.limit = n
	p.mu.Unlock()
	if grew {
		p.cond.Broadcast()
	}
}

// QueueStat is one source queue's live state and lifetime counters, for
// debug endpoints and tests.
type QueueStat struct {
	// Source is the source ID the queue serves.
	Source string `json:"source"`
	// Workers and QueueCap echo the queue's live Limits (the bounds an
	// adaptive Resize last applied, or the creation-time ones).
	Workers  int `json:"workers"`
	QueueCap int `json:"queue_cap"`
	// Depth is the number of batches currently waiting for a worker.
	Depth int64 `json:"depth"`
	// Inflight is the number of tasks currently running on workers.
	Inflight int64 `json:"inflight"`
	// Submitted counts accepted submissions (leaders plus joiners);
	// Batched counts the joiners among them, so Submitted-Batched is the
	// number of wire calls attempted.
	Submitted int64 `json:"submitted"`
	Batched   int64 `json:"batched"`
	// QueueFull counts submissions shed with ErrQueueFull.
	QueueFull int64 `json:"queue_full"`
	// Refused counts batches fast-drained with ErrRefused.
	Refused int64 `json:"refused"`
	// Cancelled counts batches whose every waiter abandoned them before
	// a worker picked them up.
	Cancelled int64 `json:"cancelled"`
	// Doomed counts submissions refused with ErrDeadline because their
	// remaining context budget could not cover the source's observed
	// typical service time.
	Doomed int64 `json:"doomed"`
	// WireCalls counts wire calls actually issued; WireItems counts the
	// queue items they carried (a multiplexed drain contributes one call
	// and several items, so 1 - WireCalls/WireItems is the batched-wire
	// ratio).
	WireCalls int64 `json:"wire_calls"`
	WireItems int64 `json:"wire_items"`
	// TypicalRun is the source's current median observed service time (0
	// until enough runs are recorded) — the estimate the deadline check
	// admits against.
	TypicalRun time.Duration `json:"typical_run_ns"`
}

// Snapshot reports every source queue's stats, sorted by source ID.
func (d *Dispatcher) Snapshot() []QueueStat {
	d.mu.Lock()
	qs := make([]*queue, 0, len(d.queues))
	for _, q := range d.queues {
		qs = append(qs, q)
	}
	d.mu.Unlock()
	stats := make([]QueueStat, len(qs))
	for i, q := range qs {
		stats[i] = q.stat()
	}
	for i := 1; i < len(stats); i++ {
		for j := i; j > 0 && stats[j].Source < stats[j-1].Source; j-- {
			stats[j], stats[j-1] = stats[j-1], stats[j]
		}
	}
	return stats
}

// Close stops accepting submissions and lets workers drain the batches
// already queued. It is safe to call more than once.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	qs := make([]*queue, 0, len(d.queues))
	for _, q := range d.queues {
		qs = append(qs, q)
	}
	d.mu.Unlock()
	for _, q := range qs {
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
		close(q.ch)
	}
}

// queueHardCap is the minimum channel capacity a queue is created with.
// The channel is allocated once (channels cannot be resized), so the
// admission bound lives in a counter checked at submit time and the
// channel only needs room for any bound a later Resize might set.
const queueHardCap = 1024

// queue is one source's bounded channel of batches plus the pump that
// hands them to a resizable worker pool.
type queue struct {
	d      *Dispatcher
	source string
	keyer  qcache.Keyer // fingerprints SubmitQuery's queries for coalescing
	ch     chan *batch
	slots  *pool

	mu      sync.Mutex
	lim     Limits            // live bounds; mutated only by resize
	pending map[string]*batch // key -> in-flight batch accepting joiners
	closed  bool

	// runMu guards the recent-run ring feeding the deadline check.
	runMu sync.Mutex
	runs  [runRingSize]time.Duration
	runN  int

	submitted, batched, queueFull, refused, cancelled, doomed atomic.Int64
	wireCalls, wireItems                                      atomic.Int64

	cSubmitted, cBatched, cQueueFull, cRefused, cCancelled, cDoomed *obs.Counter
	cWireCalls, cWireItems                                          *obs.Counter
	gDepth, gInflight, gConcLimit, gQueueLimit                      *obs.Gauge
	hWait, hRun, hWireSize                                          *obs.Histogram
}

// wireSizeBounds are the bucket bounds of the items-per-wire-call
// histogram: counts, not durations (a size n is observed as
// time.Duration(n)).
var wireSizeBounds = []time.Duration{1, 2, 4, 8, 16, 32, 64}

func newQueue(d *Dispatcher, source string, lim Limits) *queue {
	reg := d.cfg.Metrics
	l := func(name string) string { return obs.L(name, "source", source) }
	hard := lim.QueueDepth
	if hard < queueHardCap {
		hard = queueHardCap
	}
	q := &queue{
		d:           d,
		source:      source,
		keyer:       qcache.Keyer{Scope: "dispatch/" + source},
		lim:         lim,
		ch:          make(chan *batch, hard),
		slots:       newPool(lim.Concurrency),
		pending:     map[string]*batch{},
		cSubmitted:  reg.Counter(l(obs.MDispatchSubmitted)),
		cBatched:    reg.Counter(l(obs.MDispatchBatched)),
		cQueueFull:  reg.Counter(l(obs.MDispatchQueueFull)),
		cRefused:    reg.Counter(l(obs.MDispatchRefused)),
		cCancelled:  reg.Counter(l(obs.MDispatchCancelled)),
		cDoomed:     reg.Counter(l(obs.MDispatchDoomed)),
		cWireCalls:  reg.Counter(l(obs.MDispatchWireCalls)),
		cWireItems:  reg.Counter(l(obs.MDispatchWireItems)),
		gDepth:      reg.Gauge(l(obs.MDispatchQueueDepth)),
		gInflight:   reg.Gauge(l(obs.MDispatchInflight)),
		gConcLimit:  reg.Gauge(l(obs.MDispatchConcurrencyLimit)),
		gQueueLimit: reg.Gauge(l(obs.MDispatchQueueLimit)),
		hWait:       reg.Histogram(l(obs.MDispatchWaitSeconds)),
		hRun:        reg.Histogram(l(obs.MDispatchRunSeconds)),
		hWireSize:   reg.HistogramBuckets(l(obs.MDispatchWireSize), wireSizeBounds),
	}
	q.gConcLimit.Set(int64(lim.Concurrency))
	q.gQueueLimit.Set(int64(lim.QueueDepth))
	return q
}

// resize applies new live bounds (see Dispatcher.Resize for semantics).
func (q *queue) resize(lim Limits) {
	if hard := cap(q.ch); lim.QueueDepth > hard {
		lim.QueueDepth = hard
	}
	q.mu.Lock()
	q.lim = lim
	q.mu.Unlock()
	q.slots.setLimit(lim.Concurrency)
	q.gConcLimit.Set(int64(lim.Concurrency))
	q.gQueueLimit.Set(int64(lim.QueueDepth))
}

// limits reads the live bounds.
func (q *queue) limits() Limits {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lim
}

// recordRun feeds one observed service time into the deadline check's
// ring.
func (q *queue) recordRun(d time.Duration) {
	q.runMu.Lock()
	q.runs[q.runN%runRingSize] = d
	q.runN++
	q.runMu.Unlock()
}

// typicalRun estimates the source's median service time from the
// recent-run ring; ok is false below minRunSamples observations.
func (q *queue) typicalRun() (med time.Duration, ok bool) {
	q.runMu.Lock()
	n := q.runN
	if n > runRingSize {
		n = runRingSize
	}
	if n < minRunSamples {
		q.runMu.Unlock()
		return 0, false
	}
	buf := make([]time.Duration, n)
	copy(buf, q.runs[:n])
	q.runMu.Unlock()
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[n/2], true
}

func (q *queue) stat() QueueStat {
	lim := q.limits()
	med, _ := q.typicalRun()
	return QueueStat{
		Source:     q.source,
		Workers:    lim.Concurrency,
		QueueCap:   lim.QueueDepth,
		Depth:      q.gDepth.Value(),
		Inflight:   q.gInflight.Value(),
		Submitted:  q.submitted.Load(),
		Batched:    q.batched.Load(),
		QueueFull:  q.queueFull.Load(),
		Refused:    q.refused.Load(),
		Cancelled:  q.cancelled.Load(),
		Doomed:     q.doomed.Load(),
		WireCalls:  q.wireCalls.Load(),
		WireItems:  q.wireItems.Load(),
		TypicalRun: med,
	}
}

// submit joins an in-flight batch for key or enqueues a new one,
// shedding with ErrQueueFull when the queue is at its depth bound and
// with ErrDeadline when the caller's remaining budget cannot cover the
// source's typical service time.
func (q *queue) submit(ctx context.Context, key string, fn Task, item any, exec muxExec) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	if key != "" {
		if b := q.pending[key]; b != nil {
			b.waiters++
			q.mu.Unlock()
			q.submitted.Add(1)
			q.cSubmitted.Inc()
			q.batched.Add(1)
			q.cBatched.Inc()
			return &Ticket{q: q, b: b}, nil
		}
	}
	// Deadline-aware admission, leaders only (a joiner rides a call that
	// is running regardless): refuse work whose remaining budget cannot
	// cover the source's observed median service time — it would only
	// occupy queue and worker capacity on its way to a deadline error.
	// The wall clock (not the injectable test clock) measures remaining
	// budget, because context deadlines come from the wall clock; frozen
	// -clock tests record zero-duration runs and are never doomed. An
	// idle source (nothing in flight) always admits, so one probe at a
	// time refreshes the estimate and a recovered source is not locked
	// out by its slow history.
	if deadline, hasDeadline := ctx.Deadline(); hasDeadline && q.gInflight.Value() > 0 {
		if med, ok := q.typicalRun(); ok {
			if remaining := time.Until(deadline); remaining < med {
				q.mu.Unlock()
				q.doomed.Add(1)
				q.cDoomed.Inc()
				return nil, fmt.Errorf("%w: %s (typical run %v, budget %v)",
					ErrDeadline, q.source, med, remaining)
			}
		}
	}
	// The slot pool counts queued batches and admits this one unless the
	// queue is at its depth bound. Checked under mu, so concurrent
	// submits never over-admit.
	if !q.slots.enqueue(q.lim.QueueDepth) {
		depth := q.lim.QueueDepth
		q.mu.Unlock()
		q.queueFull.Add(1)
		q.cQueueFull.Inc()
		return nil, fmt.Errorf("%w: %s (depth %d)", ErrQueueFull, q.source, depth)
	}
	// The batch context keeps the leader's values (trace, metrics) but
	// detaches its cancellation: a batch serves every waiter, so it ends
	// early only when all of them have abandoned it.
	bctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	b := &batch{
		key:      key,
		fn:       fn,
		item:     item,
		exec:     exec,
		ctx:      bctx,
		cancel:   cancel,
		enqueued: q.d.cfg.Now(),
		waiters:  1,
		done:     make(chan struct{}),
		// Until run settles its group's faults, every batch is the
		// primary fault of its own wire call.
		faultPrimary: true,
	}
	// The depth gauge rises before the batch becomes visible on the
	// channel: the pump decrements it on receive, so incrementing after
	// the send could transiently read -1. The channel's fixed capacity is
	// at least the clamped depth bound, so with admission checked under
	// mu the send cannot block; the default arm is pure insurance.
	q.gDepth.Add(1)
	select {
	case q.ch <- b:
	default:
		q.dequeued()
		depth := q.lim.QueueDepth
		q.mu.Unlock()
		cancel()
		q.queueFull.Add(1)
		q.cQueueFull.Inc()
		return nil, fmt.Errorf("%w: %s (depth %d)", ErrQueueFull, q.source, depth)
	}
	if key != "" {
		q.pending[key] = b
	}
	q.mu.Unlock()
	q.submitted.Add(1)
	q.cSubmitted.Inc()
	return &Ticket{q: q, b: b, led: true}, nil
}

// pump serves batches until the queue's channel closes: it acquires a
// slot from the resizable pool (the live concurrency bound) and
// hands each batch to run on its own goroutine. Batches already
// abandoned or refused resolve through drop without a slot, so a
// drained or broken source's queue empties fast even while its slots
// are busy; the pump itself never runs work.
//
// When the batch at the head is a mux submission, the pump drains up to
// MaxBatchWire-1 further mux batches off the queue into the same worker
// slot — one wire call for the whole drain. A plain batch encountered
// mid-drain is stashed, not skipped: the pump is a single goroutine, so
// the stash is checked before the channel on the next iteration and
// FIFO order is preserved.
func (q *queue) pump() {
	var stash *batch
	for {
		b := stash
		stash = nil
		if b == nil {
			var ok bool
			if b, ok = <-q.ch; !ok {
				return
			}
		}
		// The batch stays queued until it either resolves inline or wins
		// a slot: while the pump is parked at the pool the batch is still
		// "waiting for a worker", and forgetting it early would quietly
		// widen the admission bound by one.
		if q.drop(b, q.refuses()) {
			q.dequeued()
			continue
		}
		q.slots.acquire()
		q.gDepth.Add(-1)
		group, max := []*batch{b}, 1
		if b.exec != nil {
			max = q.limits().MaxBatchWire
		}
	drain:
		for len(group) < max {
			select {
			case nb, ok := <-q.ch:
				switch {
				case !ok:
					break drain
				case q.drop(nb, q.refuses()):
					// Resolved without running; costs no slot.
					q.dequeued()
				case nb.exec == nil:
					// A plain task cannot join a wire group; it keeps its
					// depth accounting and runs on the next pump iteration.
					stash = nb
					break drain
				default:
					q.dequeued()
					group = append(group, nb)
				}
			default:
				break drain
			}
		}
		go q.run(group)
	}
}

// dequeued forgets a queued batch that will not take a slot of its
// own: dropped, or riding a drained group's slot.
func (q *queue) dequeued() {
	q.slots.unqueue()
	q.gDepth.Add(-1)
}

// refuses asks the Refuse hook whether the source is unavailable.
func (q *queue) refuses() bool {
	return q.d.cfg.Refuse != nil && q.d.cfg.Refuse(q.source)
}

// drop resolves b without running it when every waiter has abandoned it
// or when refused — the caller's own Refuse verdict, so the decision to
// drop and the error it resolves with can never disagree. It reports
// whether b was resolved; a live, unrefused batch is left alone.
func (q *queue) drop(b *batch, refused bool) bool {
	switch {
	case b.ctx.Err() != nil:
		b.err = fmt.Errorf("dispatch: %s: batch abandoned before start: %w", q.source, context.Cause(b.ctx))
		q.cancelled.Add(1)
		q.cCancelled.Inc()
	case refused:
		b.err = fmt.Errorf("%w: %s", ErrRefused, q.source)
		q.refused.Add(1)
		q.cRefused.Inc()
	default:
		return false
	}
	b.waited = q.d.cfg.Now().Sub(b.enqueued)
	q.hWait.Observe(b.waited)
	q.resolve(b)
	return true
}

// run is the one place submitted work executes. The pump starts it on
// a goroutine of its own for each group it drains — a plain task is a
// group of one, a mux drain one exec call for all its members — holding
// one of the source's worker slots, which run vacates before it
// resolves any member. Members abandoned or refused since the pump took
// them resolve first without running. The survivors run under the
// leader's context; for a group of several, under a merged context
// derived from the leader's (its trace and metrics values) that is
// cancelled only once every member's own batch context has ended, so as
// long as one member has a live waiter the shared wire call keeps
// running.
func (q *queue) run(group []*batch) {
	now := q.d.cfg.Now
	start := now()
	refused := q.refuses()
	active := group[:0]
	for _, b := range group {
		if q.drop(b, refused) {
			continue
		}
		b.waited = start.Sub(b.enqueued)
		q.hWait.Observe(b.waited)
		active = append(active, b)
	}
	if len(active) == 0 {
		q.slots.release()
		return
	}
	leader := active[0]
	ctx := leader.ctx
	if len(active) > 1 {
		gctx, gcancel := context.WithCancel(context.WithoutCancel(leader.ctx))
		go func() {
			// Each member's context ends either when its last waiter
			// abandons it or when resolve cancels it after the run, so
			// this watcher always terminates — and cancels the shared call
			// early exactly when nobody is waiting for any member anymore.
			for _, b := range active {
				<-b.ctx.Done()
			}
			gcancel()
		}()
		ctx = gctx
	}
	var (
		vals []any
		errs []error
		fail error
	)
	q.gInflight.Add(1)
	func() {
		defer func() {
			if r := recover(); r != nil {
				fail = fmt.Errorf("dispatch: %s: task panicked: %v", q.source, r)
			}
		}()
		if leader.exec == nil {
			v, err := leader.fn(ctx)
			vals, errs = []any{v}, []error{err}
			return
		}
		items := make([]any, len(active))
		for i, b := range active {
			items[i] = b.item
		}
		vals, errs = leader.exec(ctx, items)
	}()
	ran := now().Sub(start)
	q.hRun.Observe(ran)
	q.recordRun(ran)
	q.gInflight.Add(-1)
	q.countWire(len(active))
	// The slot is vacated before any member resolves, so a caller that
	// has its answer is admitted against the capacity it freed; the
	// parked pump is woken only after, so the waiters' follow-up
	// submissions can still join its next drain.
	q.slots.vacate()
	defer q.slots.wake()
	if fail == nil && (len(vals) != len(active) || len(errs) != len(active)) {
		fail = fmt.Errorf("dispatch: %s: exec returned %d values, %d errors for %d items",
			q.source, len(vals), len(errs), len(active))
	}
	faultTaken := false
	for i, b := range active {
		b.ran = ran
		if fail != nil {
			b.err = fail
		} else {
			b.val, b.err = vals[i], errs[i]
		}
		// Exactly one failed member is the wire call's primary fault; the
		// rest merely shared the call and must not double-count against
		// per-call accounting such as a breaker's failure threshold.
		b.faultPrimary = b.err != nil && !faultTaken
		if b.err != nil {
			faultTaken = true
		}
		q.resolve(b)
	}
}

// countWire accounts one wire call that carried n queue items.
func (q *queue) countWire(n int) {
	q.wireCalls.Add(1)
	q.cWireCalls.Inc()
	q.wireItems.Add(int64(n))
	q.cWireItems.Add(int64(n))
	q.hWireSize.Observe(time.Duration(n))
}

// resolve publishes a finished batch: it leaves the pending map before
// done closes, mirroring qcache's flightGroup, so a later identical
// submit starts a fresh batch instead of joining a finished one. The
// batch context is cancelled last — after resolution it has no further
// use, and cancelling it signals any group-context watcher.
func (q *queue) resolve(b *batch) {
	q.mu.Lock()
	if b.key != "" && q.pending[b.key] == b {
		delete(q.pending, b.key)
	}
	b.fanout = b.waiters
	q.mu.Unlock()
	close(b.done)
	b.cancel()
}

// batch is one (possibly shared) unit of queued work. val, err, waited,
// ran and fanout are written by the serving worker before done closes
// and only read after done, so they need no lock; waiters is guarded by
// the queue mutex.
type batch struct {
	key      string
	fn       Task    // plain submissions: the task
	item     any     // mux submissions: the per-item input
	exec     muxExec // mux submissions: the group executor
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time
	done     chan struct{}

	waiters int // guarded by queue.mu

	val    any
	err    error
	waited time.Duration
	ran    time.Duration
	fanout int
	// faultPrimary marks the batch whose failure is its wire call's
	// primary fault: true for exactly one failed member of each run
	// group, and for a batch dropped before it ran (see
	// Ticket.FaultPrimary).
	faultPrimary bool
}

// Ticket is one waiter's handle on a submitted batch.
type Ticket struct {
	q       *queue
	b       *batch
	led     bool
	abandon sync.Once
}

// Led reports whether this waiter created the batch (false: it joined an
// in-flight one). Exactly one waiter per wire call leads; feed breaker
// or accounting state from the leader only, or shared calls are
// double-counted.
func (t *Ticket) Led() bool { return t.led }

// Wait blocks until the batch resolves or ctx ends. Abandoning a batch
// (ctx ending first) unregisters this waiter; when the last waiter
// abandons, the batch leaves the pending map (it accepts no new joiners)
// and its context is cancelled, so a wire call nobody is waiting for
// stops — the same behavior an un-dispatched call had under its search's
// context.
func (t *Ticket) Wait(ctx context.Context) (any, error) {
	select {
	case <-t.b.done:
		return t.b.val, t.b.err
	case <-ctx.Done():
		t.abandon.Do(func() {
			t.q.mu.Lock()
			t.b.waiters--
			last := t.b.waiters == 0
			if last && t.b.key != "" && t.q.pending[t.b.key] == t.b {
				// The batch dies with its last waiter: remove it from the
				// pending map inside the same critical section, so a later
				// identical submit starts a fresh batch instead of joining
				// this one and inheriting its cancellation.
				delete(t.q.pending, t.b.key)
			}
			t.q.mu.Unlock()
			if last {
				t.b.cancel()
			}
		})
		return nil, ctx.Err()
	}
}

// resolved reports whether the batch has finished.
func (t *Ticket) resolved() bool {
	select {
	case <-t.b.done:
		return true
	default:
		return false
	}
}

// Waited returns how long the batch sat queued before a worker picked it
// up (0 until the batch resolves).
func (t *Ticket) Waited() time.Duration {
	if !t.resolved() {
		return 0
	}
	return t.b.waited
}

// RunFor returns the wire call's own duration — shared by every waiter
// of a batch — or 0 if the batch has not resolved or never ran.
func (t *Ticket) RunFor() time.Duration {
	if !t.resolved() {
		return 0
	}
	return t.b.ran
}

// Fanout returns how many waiters the resolved batch served (at least 1;
// 0 until the batch resolves). A fanout above 1 means the result value
// is shared: consumers that mutate it must copy first.
func (t *Ticket) Fanout() int {
	if !t.resolved() {
		return 0
	}
	return t.b.fanout
}
