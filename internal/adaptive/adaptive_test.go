package adaptive

import (
	"context"
	"sync"
	"testing"
	"time"

	"starts/internal/dispatch"
	"starts/internal/obs"
)

// fakeLimiter records Resize calls and serves a scripted Snapshot.
type fakeLimiter struct {
	mu    sync.Mutex
	stats []dispatch.QueueStat
	sizes map[string]dispatch.Limits
}

func newFakeLimiter(sources ...string) *fakeLimiter {
	f := &fakeLimiter{sizes: map[string]dispatch.Limits{}}
	for _, s := range sources {
		f.stats = append(f.stats, dispatch.QueueStat{Source: s, Workers: 4, QueueCap: 16})
	}
	return f
}

func (f *fakeLimiter) Snapshot() []dispatch.QueueStat {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]dispatch.QueueStat(nil), f.stats...)
}

func (f *fakeLimiter) Resize(source string, lim dispatch.Limits) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sizes[source] = lim
	return true
}

func (f *fakeLimiter) limits(source string) dispatch.Limits {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sizes[source]
}

// observe feeds n run observations of duration d for source into reg —
// what the dispatcher would have recorded.
func observe(reg *obs.Registry, source string, d time.Duration, n int) {
	h := reg.Histogram(obs.L(obs.MDispatchRunSeconds, "source", source))
	for i := 0; i < n; i++ {
		h.Observe(d)
	}
}

func newTestController(lim Limiter, reg *obs.Registry, broken func(string) bool) *Controller {
	return New(lim, Config{
		LatencySLO:     100 * time.Millisecond,
		Quantile:       0.95,
		MinConcurrency: 1,
		MaxConcurrency: 8,
		MinQueueDepth:  2,
		MaxQueueDepth:  64,
		Broken:         broken,
		Metrics:        reg,
	})
}

// TestAIMDDecreaseOnSLOBreach pins the decrease side: a window whose
// latency quantile breaches the SLO halves the source's limits, repeated
// breaches walk them to the floor, and they never go below it.
func TestAIMDDecreaseOnSLOBreach(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFakeLimiter("slow")
	c := newTestController(f, reg, nil)

	c.Tick() // first sight: adopt live limits (4/16), window starts now
	if got := f.limits("slow"); got.Concurrency != 4 || got.QueueDepth != 16 {
		t.Fatalf("adopted limits = %+v, want 4/16", got)
	}
	observe(reg, "slow", 500*time.Millisecond, 10) // far over the 100ms SLO
	ds := c.Tick()
	if len(ds) != 1 || ds[0].Action != "decrease" || ds[0].Reason != "latency-slo" {
		t.Fatalf("decision = %+v, want decrease/latency-slo", ds)
	}
	if got := f.limits("slow"); got.Concurrency != 2 || got.QueueDepth != 8 {
		t.Fatalf("after one breach = %+v, want 2/8", got)
	}
	if ds[0].WindowLatency <= 100*time.Millisecond {
		t.Errorf("WindowLatency = %v, want above the SLO", ds[0].WindowLatency)
	}
	// Walk to the floor; never below MinConcurrency/MinQueueDepth.
	for i := 0; i < 5; i++ {
		observe(reg, "slow", 500*time.Millisecond, 10)
		c.Tick()
	}
	if got := f.limits("slow"); got.Concurrency != 1 || got.QueueDepth != 2 {
		t.Fatalf("floor limits = %+v, want 1/2", got)
	}
	if reg.Counter(obs.L(obs.MAdaptiveDecreases, "source", "slow")).Value() < 5 {
		t.Error("decrease counter did not track the breaches")
	}
}

// TestAIMDIncreaseOnHealthyWindows pins the increase side: healthy
// windows grow limits one additive step per tick, idle windows hold, and
// growth stops at the ceiling with a "hold/ceiling" decision.
func TestAIMDIncreaseOnHealthyWindows(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFakeLimiter("ok")
	c := newTestController(f, reg, nil)
	c.Tick()

	observe(reg, "ok", 5*time.Millisecond, 10)
	ds := c.Tick()
	if ds[0].Action != "increase" || ds[0].Reason != "healthy" {
		t.Fatalf("decision = %+v, want increase/healthy", ds[0])
	}
	if got := f.limits("ok"); got.Concurrency != 5 || got.QueueDepth != 20 {
		t.Fatalf("after one healthy window = %+v, want 5/20", got)
	}

	// An idle window holds: limits must not creep on no data.
	ds = c.Tick()
	if ds[0].Action != "hold" || ds[0].Reason != "idle" {
		t.Fatalf("idle decision = %+v, want hold/idle", ds[0])
	}
	if got := f.limits("ok"); got.Concurrency != 5 {
		t.Fatalf("idle window moved limits to %+v", got)
	}

	// Growth saturates at the ceiling.
	for i := 0; i < 10; i++ {
		observe(reg, "ok", 5*time.Millisecond, 10)
		c.Tick()
	}
	if got := f.limits("ok"); got.Concurrency != 8 || got.QueueDepth != 60 {
		t.Fatalf("ceiling limits = %+v, want 8/60", got)
	}
	observe(reg, "ok", 5*time.Millisecond, 10)
	observe(reg, "ok", 5*time.Millisecond, 1)
	ds = c.Tick()
	if ds[0].Concurrency != 8 {
		t.Fatalf("above-ceiling concurrency %d", ds[0].Concurrency)
	}
}

// TestBreakerForcesDecrease pins the breaker signal: a broken source
// shrinks even when its latency window is empty (its calls are being
// refused, so no runs are recorded — exactly when the signal matters).
func TestBreakerForcesDecrease(t *testing.T) {
	reg := obs.NewRegistry()
	f := newFakeLimiter("dead")
	brokenSet := map[string]bool{"dead": true}
	var mu sync.Mutex
	c := newTestController(f, reg, func(id string) bool {
		mu.Lock()
		defer mu.Unlock()
		return brokenSet[id]
	})
	c.Tick()
	ds := c.Tick() // empty window + broken breaker
	if ds[0].Action != "decrease" || ds[0].Reason != "breaker" {
		t.Fatalf("decision = %+v, want decrease/breaker", ds[0])
	}
	// Recovery: breaker closes, traffic resumes healthy, limits re-grow.
	mu.Lock()
	brokenSet["dead"] = false
	mu.Unlock()
	observe(reg, "dead", time.Millisecond, 5)
	ds = c.Tick()
	if ds[0].Action != "increase" {
		t.Fatalf("post-recovery decision = %+v, want increase", ds[0])
	}
}

// TestAgainstRealDispatcher runs the controller against an actual
// dispatcher end to end: slow traffic shrinks the live limits (visible
// in QueueStat), fast traffic after recovery re-grows them.
func TestAgainstRealDispatcher(t *testing.T) {
	reg := obs.NewRegistry()
	d := dispatch.New(dispatch.Config{
		Limits:  dispatch.Limits{Concurrency: 4, QueueDepth: 16},
		Metrics: reg,
	})
	defer d.Close()
	c := newTestController(d, reg, nil)

	run := func(dur time.Duration, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tk, err := d.Submit(t.Context(), "s", "", func(context.Context) (any, error) {
				time.Sleep(dur)
				return nil, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tk.Wait(t.Context()); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(0, 1) // create the queue
	c.Tick()  // adopt

	run(200*time.Millisecond, 3) // breach the 100ms SLO
	c.Tick()
	st := stat(t, d, "s")
	if st.Workers >= 4 {
		t.Fatalf("Workers = %d after breach, want shrunk below 4", st.Workers)
	}
	shrunk := st.Workers

	run(time.Millisecond, 24) // healthy windows flush the ring... and the next window
	c.Tick()
	run(time.Millisecond, 8)
	c.Tick()
	if st := stat(t, d, "s"); st.Workers <= shrunk {
		t.Fatalf("Workers = %d after recovery, want re-grown above %d", st.Workers, shrunk)
	}

	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Source != "s" {
		t.Fatalf("Snapshot = %+v", snap)
	}
}

func stat(t *testing.T, d *dispatch.Dispatcher, source string) dispatch.QueueStat {
	t.Helper()
	for _, st := range d.Snapshot() {
		if st.Source == source {
			return st
		}
	}
	t.Fatalf("no queue for %q", source)
	return dispatch.QueueStat{}
}
