// Package adaptive closes the loop from the signals the system already
// records — per-source dispatch run-latency histograms, queue stats and
// circuit-breaker state — back onto the per-source dispatch limits, so
// a metasearcher tunes itself to each source's live capacity instead of
// running static configured bounds forever.
//
// The controller runs AIMD, the control law TCP congestion control
// proved out: every tick it reads each source's latency window (the
// delta of its run-seconds histogram since the previous tick) and
// estimates the window's latency quantile. A healthy window — traffic
// flowed, quantile under the SLO, breaker quiet — earns an additive
// increase of the source's concurrency and queue depth; an SLO breach
// or a broken breaker triggers a multiplicative decrease. Shrinking a
// slow source's limits is what turns one member's meltdown into a local
// event: its queue sheds early (dispatch.ErrQueueFull), its in-flight
// work stays small, and the searches fanning out to it stop donating
// goroutines and deadline budget to a source that cannot answer in
// time. When the source recovers, healthy windows walk the limits back
// up one step per tick.
//
// ZBroker (PAPERS.md) routes Z39.50 queries by continuously observed
// per-server response behavior; this package is the STARTS equivalent,
// acting on the admission side rather than the routing side.
package adaptive

import (
	"context"
	"sort"
	"sync"
	"time"

	"starts/internal/dispatch"
	"starts/internal/obs"
)

// Limiter is the seam the controller actuates through: the live
// per-source queue stats and the resize hook. *dispatch.Dispatcher
// satisfies it.
type Limiter interface {
	Snapshot() []dispatch.QueueStat
	Resize(source string, lim dispatch.Limits) bool
}

// Config tunes the controller. The zero value is usable.
type Config struct {
	// Interval is the control-loop period (default 1s). Each tick
	// evaluates the latency window since the previous tick.
	Interval time.Duration
	// LatencySLO is the per-source latency objective: a window whose
	// observed quantile exceeds it is a breach (default 2s).
	LatencySLO time.Duration
	// Quantile is which windowed latency quantile is held against the
	// SLO (default 0.95).
	Quantile float64
	// MinConcurrency/MaxConcurrency bound the per-source worker limit
	// the controller may set (defaults 1 and 64).
	MinConcurrency int
	MaxConcurrency int
	// MinQueueDepth/MaxQueueDepth bound the per-source queue-depth limit
	// (defaults 4 and 256).
	MinQueueDepth int
	MaxQueueDepth int
	// Increase is the additive step concurrency grows by on a healthy
	// window (default 1); queue depth grows by four times it, keeping
	// roughly the default 4-deep-per-worker ratio.
	Increase int
	// DecreaseFactor is the multiplicative cut applied on a breach
	// (default 0.5); values outside (0, 1) take the default.
	DecreaseFactor float64
	// Broken, when set, reports whether a source's circuit is currently
	// broken (open or probing half-open) — resilient.Breaker.Broken fits.
	// A broken source is treated as a breach even with an empty latency
	// window, so its limits shrink toward the floor while it misbehaves.
	Broken func(source string) bool
	// Metrics receives the starts_adaptive_* family; nil records
	// nothing. Pass the registry the dispatcher records into: the
	// controller also reads its per-source run histograms from here.
	Metrics *obs.Registry
	// Now overrides the clock for decision timestamps in tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.LatencySLO <= 0 {
		c.LatencySLO = 2 * time.Second
	}
	if c.Quantile <= 0 || c.Quantile > 1 {
		c.Quantile = 0.95
	}
	if c.MinConcurrency <= 0 {
		c.MinConcurrency = 1
	}
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = 64
	}
	if c.MaxConcurrency < c.MinConcurrency {
		c.MaxConcurrency = c.MinConcurrency
	}
	if c.MinQueueDepth <= 0 {
		c.MinQueueDepth = 4
	}
	if c.MaxQueueDepth <= 0 {
		c.MaxQueueDepth = 256
	}
	if c.MaxQueueDepth < c.MinQueueDepth {
		c.MaxQueueDepth = c.MinQueueDepth
	}
	if c.Increase <= 0 {
		c.Increase = 1
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		c.DecreaseFactor = 0.5
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Decision is one source's state after a tick — what the controller set
// its limits to and why. Serialized on /debug/adaptive.
type Decision struct {
	Source      string `json:"source"`
	Concurrency int    `json:"concurrency"`
	QueueDepth  int    `json:"queue_depth"`
	// Action is "increase", "decrease" or "hold"; Reason is "healthy",
	// "latency-slo", "breaker", "idle" or "ceiling".
	Action string `json:"action"`
	Reason string `json:"reason"`
	// WindowLatency is the window's observed latency quantile (0 when
	// the window was idle); WindowCount is how many runs it covered.
	WindowLatency time.Duration `json:"window_latency_ns"`
	WindowCount   int64         `json:"window_count"`
	At            time.Time     `json:"at"`
}

// sourceState is the controller's memory of one source between ticks.
type sourceState struct {
	conc    int
	depth   int
	lastRun []int64 // previous cumulative run-histogram bucket counts
	last    Decision
}

// Controller drives the AIMD loop. All methods are safe for concurrent
// use.
type Controller struct {
	cfg Config
	lim Limiter

	mu    sync.Mutex
	state map[string]*sourceState

	cTicks *obs.Counter
}

// New returns a controller actuating lim under cfg. It takes no
// measurements and applies nothing until Tick (or Start) runs.
func New(lim Limiter, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:    cfg,
		lim:    lim,
		state:  map[string]*sourceState{},
		cTicks: cfg.Metrics.Counter(obs.MAdaptiveTicks),
	}
}

// Interval reports the configured control-loop period.
func (c *Controller) Interval() time.Duration { return c.cfg.Interval }

// Tick runs one control round: read each known source's latency window,
// decide increase/decrease/hold, apply the new limits through the
// Limiter, and return the decisions sorted by source. Exposed so tests
// (and callers with their own schedulers) can drive the loop
// deterministically; Start calls it on the configured interval.
func (c *Controller) Tick() []Decision {
	c.cTicks.Inc()
	stats := c.lim.Snapshot()
	now := c.cfg.Now()

	c.mu.Lock()
	defer c.mu.Unlock()
	decisions := make([]Decision, 0, len(stats))
	for _, st := range stats {
		s := c.state[st.Source]
		if s == nil {
			// First sight: adopt the live limits, clamped into the
			// controller's bounds, and start the window from the
			// histogram's current totals.
			s = &sourceState{
				conc:    clamp(st.Workers, c.cfg.MinConcurrency, c.cfg.MaxConcurrency),
				depth:   clamp(st.QueueCap, c.cfg.MinQueueDepth, c.cfg.MaxQueueDepth),
				lastRun: c.runCounts(st.Source),
			}
			c.state[st.Source] = s
		}
		d := c.decide(st.Source, s, now)
		decisions = append(decisions, d)
	}
	sort.Slice(decisions, func(i, j int) bool { return decisions[i].Source < decisions[j].Source })
	return decisions
}

// decide evaluates one source's window and applies the outcome. Called
// with c.mu held.
func (c *Controller) decide(source string, s *sourceState, now time.Time) Decision {
	cur := c.runCounts(source)
	window := deltaCounts(cur, s.lastRun)
	s.lastRun = cur
	var count int64
	for _, n := range window {
		count += n
	}
	bounds := c.runBounds(source)
	var lat time.Duration
	if count > 0 {
		lat = obs.QuantileOf(bounds, window, c.cfg.Quantile)
	}
	broken := c.cfg.Broken != nil && c.cfg.Broken(source)

	d := Decision{
		Source:        source,
		WindowLatency: lat,
		WindowCount:   count,
		At:            now,
	}
	switch {
	case broken || (count > 0 && lat > c.cfg.LatencySLO):
		// Multiplicative decrease: cut both limits toward the floor.
		s.conc = clamp(int(float64(s.conc)*c.cfg.DecreaseFactor), c.cfg.MinConcurrency, c.cfg.MaxConcurrency)
		s.depth = clamp(int(float64(s.depth)*c.cfg.DecreaseFactor), c.cfg.MinQueueDepth, c.cfg.MaxQueueDepth)
		d.Action = "decrease"
		if broken {
			d.Reason = "breaker"
		} else {
			d.Reason = "latency-slo"
		}
		c.cfg.Metrics.Counter(obs.L(obs.MAdaptiveDecreases, "source", source)).Inc()
	case count > 0:
		// Additive increase on a healthy window.
		conc := clamp(s.conc+c.cfg.Increase, c.cfg.MinConcurrency, c.cfg.MaxConcurrency)
		depth := clamp(s.depth+4*c.cfg.Increase, c.cfg.MinQueueDepth, c.cfg.MaxQueueDepth)
		if conc == s.conc && depth == s.depth {
			d.Action, d.Reason = "hold", "ceiling"
		} else {
			s.conc, s.depth = conc, depth
			d.Action, d.Reason = "increase", "healthy"
			c.cfg.Metrics.Counter(obs.L(obs.MAdaptiveIncreases, "source", source)).Inc()
		}
	default:
		// No traffic and no breaker signal: nothing to learn from.
		d.Action, d.Reason = "hold", "idle"
	}
	d.Concurrency, d.QueueDepth = s.conc, s.depth
	c.lim.Resize(source, dispatch.Limits{Concurrency: s.conc, QueueDepth: s.depth})
	c.cfg.Metrics.Gauge(obs.L(obs.MAdaptiveConcurrency, "source", source)).Set(int64(s.conc))
	c.cfg.Metrics.Gauge(obs.L(obs.MAdaptiveQueueDepth, "source", source)).Set(int64(s.depth))
	c.cfg.Metrics.Gauge(obs.L(obs.MAdaptiveWindowSeconds, "source", source)).Set(int64(lat))
	s.last = d
	return d
}

// runCounts reads a source's cumulative run-histogram bucket counts
// from the registry the dispatcher records into.
func (c *Controller) runCounts(source string) []int64 {
	return c.cfg.Metrics.Histogram(obs.L(obs.MDispatchRunSeconds, "source", source)).BucketCounts()
}

// runBounds reads the same histogram's bucket bounds.
func (c *Controller) runBounds(source string) []time.Duration {
	return c.cfg.Metrics.Histogram(obs.L(obs.MDispatchRunSeconds, "source", source)).Bounds()
}

// deltaCounts is cur - prev element-wise; a length mismatch (first
// sight, or a registry swap) yields cur as the whole window.
func deltaCounts(cur, prev []int64) []int64 {
	if len(prev) != len(cur) {
		return cur
	}
	out := make([]int64, len(cur))
	for i := range cur {
		out[i] = cur[i] - prev[i]
	}
	return out
}

// Snapshot returns each known source's latest decision, sorted by
// source — the /debug/adaptive payload.
func (c *Controller) Snapshot() []Decision {
	c.mu.Lock()
	out := make([]Decision, 0, len(c.state))
	for _, s := range c.state {
		if s.last.Source != "" {
			out = append(out, s.last)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

// Start runs Tick every Interval until ctx ends. The returned channel
// closes when the loop has stopped.
func (c *Controller) Start(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.Tick()
			}
		}
	}()
	return done
}

func clamp(n, lo, hi int) int {
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}
