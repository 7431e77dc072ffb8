package qcache

import (
	"bufio"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"starts/internal/obs"
)

// WarmEntry is one recorded workload item: the cache fingerprint of a
// query plus enough of its text to replay it after a restart. Key is the
// fingerprint the query mapped to when recorded; replays recompute their
// own key, so a stale Key only costs a redundant replay, never a wrong
// entry. Filter and Ranking hold Basic-1 expression text.
type WarmEntry struct {
	Key        string `json:"key,omitempty"`
	Filter     string `json:"filter,omitempty"`
	Ranking    string `json:"ranking,omitempty"`
	MaxResults int    `json:"max_results,omitempty"`
}

// SaveWorkload writes entries as JSON lines, one WarmEntry per line —
// append-friendly and diffable.
func SaveWorkload(w io.Writer, entries []WarmEntry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("qcache: encoding workload entry: %w", err)
		}
	}
	return bw.Flush()
}

// LoadWorkload reads a JSON-lines workload written by SaveWorkload,
// skipping blank lines.
func LoadWorkload(r io.Reader) ([]WarmEntry, error) {
	var out []WarmEntry
	dec := json.NewDecoder(r)
	for {
		var e WarmEntry
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("qcache: decoding workload entry %d: %w", len(out), err)
		}
		out = append(out, e)
	}
}

// SaveWorkloadFile writes a workload file atomically enough for a CLI:
// the whole file is rewritten in place.
func SaveWorkloadFile(path string, entries []WarmEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveWorkload(f, entries); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadWorkloadFile reads a workload file written by SaveWorkloadFile.
func LoadWorkloadFile(path string) ([]WarmEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadWorkload(f)
}

// Recorder keeps the most recent distinct workload entries, bounded and
// deduplicated by Key, so a long-running metasearcher always has a
// replayable warm-start workload of its hot queries on hand. The zero
// Recorder is not usable; NewRecorder returns one. Safe for concurrent
// use; Record and Touch are O(1).
type Recorder struct {
	mu    sync.Mutex
	max   int
	order *list.List // of WarmEntry, least recently recorded first
	byKey map[string]*list.Element
}

// DefaultRecorderSize bounds a NewRecorder(0) recorder.
const DefaultRecorderSize = 512

// NewRecorder returns a recorder keeping up to max distinct entries
// (DefaultRecorderSize if max <= 0).
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultRecorderSize
	}
	return &Recorder{max: max, order: list.New(), byKey: map[string]*list.Element{}}
}

// Record notes one served query. Re-recording a key refreshes its entry
// and its recency; past capacity the least recently recorded entry is
// dropped, so the recorder tracks the hot set, not the full history.
func (r *Recorder) Record(e WarmEntry) {
	if r == nil || e.Key == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, known := r.byKey[e.Key]; known {
		el.Value = e
		r.order.MoveToBack(el)
		return
	}
	r.byKey[e.Key] = r.order.PushBack(e)
	for r.order.Len() > r.max {
		oldest := r.order.Front()
		delete(r.byKey, r.order.Remove(oldest).(WarmEntry).Key)
	}
}

// Touch refreshes the recency of an already recorded key, keeping its
// entry, and reports whether the key was known. A caller serving a hot
// query touches first and builds the entry's text only for a new key.
func (r *Recorder) Touch(key string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	el, known := r.byKey[key]
	if known {
		r.order.MoveToBack(el)
	}
	return known
}

// Entries lists the recorded workload, least recently recorded first.
func (r *Recorder) Entries() []WarmEntry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WarmEntry, 0, r.order.Len())
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(WarmEntry))
	}
	return out
}

// Len reports how many distinct entries are recorded.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order.Len()
}

// WarmStats reports one Warm run.
type WarmStats struct {
	// Replayed counts entries whose replay succeeded.
	Replayed int
	// Skipped counts duplicates and entries already fresh in the cache.
	Skipped int
	// Errors counts entries whose replay failed (parse or search).
	Errors int
	// Elapsed is the whole replay's wall time.
	Elapsed time.Duration
}

// String summarizes the stats for logs and shells.
func (s WarmStats) String() string {
	return fmt.Sprintf("replayed %d (skipped %d, errors %d) in %v",
		s.Replayed, s.Skipped, s.Errors, s.Elapsed.Round(time.Millisecond))
}

// DefaultWarmConcurrency bounds Warm's replay parallelism when the
// caller passes 0.
const DefaultWarmConcurrency = 4

// Warm replays a recorded workload so a restarted process does not take
// a cold-start latency cliff on its hot queries. Each entry runs through
// run — typically a cache-fronted search whose fills pass this cache's
// admission gate — with at most concurrency replays in flight
// (DefaultWarmConcurrency if <= 0). Entries with a Key are deduplicated
// and skipped when the key is already fresh; a cancelled ctx stops
// launching new replays. Outcomes count into the registry as the
// starts_qcache_warm_* metrics.
func (c *Cache) Warm(ctx context.Context, entries []WarmEntry, concurrency int, run func(context.Context, WarmEntry) error) WarmStats {
	start := time.Now()
	if concurrency <= 0 {
		concurrency = DefaultWarmConcurrency
	}
	var (
		mu    sync.Mutex
		stats WarmStats
		wg    sync.WaitGroup
	)
	sem := make(chan struct{}, concurrency)
	seen := map[string]bool{}
	for _, e := range entries {
		if ctx.Err() != nil {
			break
		}
		if e.Key != "" {
			if seen[e.Key] {
				stats.Skipped++
				continue
			}
			seen[e.Key] = true
			if _, fresh := c.Get(e.Key); fresh {
				stats.Skipped++
				continue
			}
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(e WarmEntry) {
			defer wg.Done()
			defer func() { <-sem }()
			err := run(ctx, e)
			mu.Lock()
			if err != nil {
				stats.Errors++
			} else {
				stats.Replayed++
			}
			mu.Unlock()
		}(e)
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	c.metrics.Counter(obs.MQCacheWarmReplayed).Add(int64(stats.Replayed))
	c.metrics.Counter(obs.MQCacheWarmSkipped).Add(int64(stats.Skipped))
	c.metrics.Counter(obs.MQCacheWarmErrors).Add(int64(stats.Errors))
	c.metrics.Histogram(obs.MQCacheWarmSeconds).Observe(stats.Elapsed)
	return stats
}
