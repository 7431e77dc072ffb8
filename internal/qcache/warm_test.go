package qcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"starts/internal/obs"
)

func TestWorkloadRoundTrip(t *testing.T) {
	in := []WarmEntry{
		{Key: "k1", Ranking: `list((body-of-text "database"))`, MaxResults: 10},
		{Key: "k2", Filter: `((author "ullman") and (title "databases"))`},
	}
	var buf bytes.Buffer
	if err := SaveWorkload(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := LoadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("loaded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d = %+v, want %+v", i, out[i], in[i])
		}
	}

	path := filepath.Join(t.TempDir(), "workload.jsonl")
	if err := SaveWorkloadFile(path, in); err != nil {
		t.Fatal(err)
	}
	out, err = LoadWorkloadFile(path)
	if err != nil || len(out) != len(in) {
		t.Fatalf("file round trip: %v, %d entries", err, len(out))
	}
}

func TestRecorderDedupAndBound(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Record(WarmEntry{Key: fmt.Sprintf("k%d", i)})
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want the bound 3", got)
	}
	es := r.Entries()
	if es[0].Key != "k2" || es[2].Key != "k4" {
		t.Fatalf("entries = %v, want the 3 most recent (k2..k4)", es)
	}
	// Re-recording refreshes recency: k2 survives the next insertion.
	r.Record(WarmEntry{Key: "k2", MaxResults: 7})
	r.Record(WarmEntry{Key: "k5"})
	es = r.Entries()
	keys := map[string]WarmEntry{}
	for _, e := range es {
		keys[e.Key] = e
	}
	if _, ok := keys["k3"]; ok {
		t.Fatal("k3 survived; want it dropped as least recently recorded")
	}
	if e, ok := keys["k2"]; !ok || e.MaxResults != 7 {
		t.Fatalf("k2 = %+v, want refreshed entry with MaxResults 7", e)
	}
	// Keyless entries are ignored rather than poisoning the ring.
	r.Record(WarmEntry{Filter: "orphan"})
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d after keyless record, want 3", got)
	}
}

// TestRecorderTouch: Touch refreshes a known key's recency without
// replacing its entry, and records nothing for an unknown key.
func TestRecorderTouch(t *testing.T) {
	r := NewRecorder(2)
	if r.Touch("a") {
		t.Fatal("Touch reported an unrecorded key as known")
	}
	if r.Len() != 0 {
		t.Fatalf("Touch of an unknown key recorded it: Len = %d", r.Len())
	}
	r.Record(WarmEntry{Key: "a", Filter: "first"})
	r.Record(WarmEntry{Key: "b"})
	if !r.Touch("a") {
		t.Fatal("Touch did not find a recorded key")
	}
	r.Record(WarmEntry{Key: "c"}) // evicts b, the least recently touched
	es := r.Entries()
	if len(es) != 2 || es[0].Key != "a" || es[1].Key != "c" {
		t.Fatalf("entries = %+v, want a then c", es)
	}
	if es[0].Filter != "first" {
		t.Errorf("Touch replaced the entry: %+v", es[0])
	}
}

func TestWarmReplaysDedupesAndSkipsFresh(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{TTL: time.Hour, Metrics: reg})
	c.Put("fresh", "already here")

	var ran atomic.Int64
	entries := []WarmEntry{
		{Key: "a"},
		{Key: "a"},     // duplicate: skipped
		{Key: "fresh"}, // already cached: skipped
		{Key: "b"},
		{Key: "bad"},
	}
	stats := c.Warm(context.Background(), entries, 2, func(_ context.Context, e WarmEntry) error {
		ran.Add(1)
		if e.Key == "bad" {
			return errors.New("does not parse anymore")
		}
		c.Put(e.Key, "warmed")
		return nil
	})
	if stats.Replayed != 2 || stats.Skipped != 2 || stats.Errors != 1 {
		t.Fatalf("stats = %+v, want 2 replayed, 2 skipped, 1 error", stats)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("run invoked %d times, want 3", got)
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("replayed entry b not in cache")
	}
	if got := reg.Counter(obs.MQCacheWarmReplayed).Value(); got != 2 {
		t.Errorf("warm replayed counter = %d, want 2", got)
	}
	if got := reg.Counter(obs.MQCacheWarmSkipped).Value(); got != 2 {
		t.Errorf("warm skipped counter = %d, want 2", got)
	}
	if got := reg.Counter(obs.MQCacheWarmErrors).Value(); got != 1 {
		t.Errorf("warm errors counter = %d, want 1", got)
	}
}

func TestWarmHonorsConcurrencyBound(t *testing.T) {
	c := New(Config{})
	var inflight, peak atomic.Int64
	entries := make([]WarmEntry, 12)
	for i := range entries {
		entries[i] = WarmEntry{Key: fmt.Sprintf("k%d", i)}
	}
	c.Warm(context.Background(), entries, 3, func(context.Context, WarmEntry) error {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency = %d, want <= 3", p)
	}
}

func TestWarmStopsOnCancelledContext(t *testing.T) {
	c := New(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	stats := c.Warm(ctx, []WarmEntry{{Key: "a"}, {Key: "b"}}, 1, func(context.Context, WarmEntry) error {
		ran.Add(1)
		return nil
	})
	if got := ran.Load(); got != 0 {
		t.Fatalf("run invoked %d times under a cancelled context, want 0", got)
	}
	if stats.Replayed != 0 {
		t.Fatalf("stats = %+v, want nothing replayed", stats)
	}
}
