package dispatch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// submitMux queues one multiplexable item for source with exec as its
// group executor — what SubmitQuery does for a batch-capable conn, with
// the wire payload left to the test.
func submitMux(ctx context.Context, d *Dispatcher, source, key string, item any, exec muxExec) (*Ticket, error) {
	q, err := d.queueFor(source)
	if err != nil {
		return nil, err
	}
	return q.submit(ctx, key, nil, item, exec)
}

// echoExec returns a muxExec echoing each item, counting calls and the
// sizes of the groups it saw.
func echoExec(calls *atomic.Int64, sizes chan<- int) muxExec {
	return func(ctx context.Context, items []any) ([]any, []error) {
		calls.Add(1)
		if sizes != nil {
			sizes <- len(items)
		}
		vals := make([]any, len(items))
		copy(vals, items)
		return vals, make([]error, len(items))
	}
}

// TestSubmitMuxDrainsQueueIntoOneWireCall pins the tentpole behavior:
// with the single worker parked, N distinct mux submissions queue up and
// the freed worker drains them all into ONE exec call, each ticket
// getting its own item's value back.
func TestSubmitMuxDrainsQueueIntoOneWireCall(t *testing.T) {
	d := New(Config{Limits: Limits{Concurrency: 1, QueueDepth: 16}})
	defer d.Close()
	release, _ := occupy(t, d, "s")

	const n = 5
	var calls atomic.Int64
	sizes := make(chan int, n)
	exec := echoExec(&calls, sizes)
	tickets := make([]*Ticket, n)
	for i := 0; i < n; i++ {
		tk, err := submitMux(context.Background(), d, "s", fmt.Sprintf("k%d", i), i, exec)
		if err != nil {
			t.Fatalf("submitMux %d: %v", i, err)
		}
		tickets[i] = tk
	}
	close(release)
	for i, tk := range tickets {
		v, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		if v.(int) != i {
			t.Errorf("ticket %d resolved with item %v", i, v)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("exec calls = %d, want 1 for a %d-item drain", got, n)
	}
	if got := <-sizes; got != n {
		t.Errorf("drained group size = %d, want %d", got, n)
	}
	// Wire stats count every wire call: the blocker (1 call, 1 item)
	// plus ONE call for the whole n-item drain.
	st := stat(t, d, "s")
	if st.WireCalls != 2 || st.WireItems != n+1 {
		t.Errorf("wire stats = %d calls / %d items, want 2/%d", st.WireCalls, st.WireItems, n+1)
	}
}

// TestSubmitMuxRespectsMaxBatchWire pins the drain bound: a queue deeper
// than MaxBatchWire splits into wire calls no larger than the bound.
func TestSubmitMuxRespectsMaxBatchWire(t *testing.T) {
	d := New(Config{Limits: Limits{Concurrency: 1, QueueDepth: 16, MaxBatchWire: 2}})
	defer d.Close()
	release, _ := occupy(t, d, "s")

	const n = 6
	var calls atomic.Int64
	sizes := make(chan int, n)
	exec := echoExec(&calls, sizes)
	tickets := make([]*Ticket, n)
	for i := 0; i < n; i++ {
		tk, err := submitMux(context.Background(), d, "s", fmt.Sprintf("k%d", i), i, exec)
		if err != nil {
			t.Fatalf("submitMux %d: %v", i, err)
		}
		tickets[i] = tk
	}
	close(release)
	for i, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
	}
	close(sizes)
	for size := range sizes {
		if size > 2 {
			t.Errorf("drained group of %d items exceeds MaxBatchWire 2", size)
		}
	}
	st := stat(t, d, "s")
	if st.WireItems != n+1 { // n drained items + the blocker
		t.Errorf("wire items = %d, want %d", st.WireItems, n+1)
	}
	if st.WireCalls < n/2+1 {
		t.Errorf("wire calls = %d, want at least %d with MaxBatchWire 2", st.WireCalls, n/2+1)
	}
}

// TestSubmitMuxCoalescesIdenticalKeys pins that fingerprint coalescing
// survives the mux path: identical in-flight keys still share one
// ticket-resolved value rather than occupying two group slots.
func TestSubmitMuxCoalescesIdenticalKeys(t *testing.T) {
	d := New(Config{Limits: Limits{Concurrency: 1, QueueDepth: 16}})
	defer d.Close()
	release, _ := occupy(t, d, "s")

	var calls atomic.Int64
	sizes := make(chan int, 2)
	exec := echoExec(&calls, sizes)
	a, err := submitMux(context.Background(), d, "s", "same", "x", exec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := submitMux(context.Background(), d, "s", "same", "x", exec)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	va, err := a.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if va.(string) != "x" || vb.(string) != "x" {
		t.Errorf("coalesced values = %v, %v", va, vb)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("exec calls = %d, want 1", got)
	}
	if got := <-sizes; got != 1 {
		t.Errorf("group size = %d, want 1 (identical keys coalesce, not multiplex)", got)
	}
	if fo := a.Fanout(); fo != 2 {
		t.Errorf("fanout = %d, want 2", fo)
	}
}

// TestFaultPrimaryChargesOneMemberPerWireCall pins the breaker-feed
// contract: when a multiplexed wire call fails several members, exactly
// one of the failed tickets is the primary fault; successful members
// report false, and a single-task batch reports true.
func TestFaultPrimaryChargesOneMemberPerWireCall(t *testing.T) {
	d := New(Config{Limits: Limits{Concurrency: 1, QueueDepth: 16}})
	defer d.Close()
	release, _ := occupy(t, d, "s")

	// Items 0 and 2 fail, item 1 succeeds.
	exec := func(ctx context.Context, items []any) ([]any, []error) {
		vals := make([]any, len(items))
		errs := make([]error, len(items))
		for i, it := range items {
			if it.(int)%2 == 0 {
				errs[i] = errors.New("wire fault")
			} else {
				vals[i] = it
			}
		}
		return vals, errs
	}
	const n = 3
	tickets := make([]*Ticket, n)
	for i := 0; i < n; i++ {
		tk, err := submitMux(context.Background(), d, "s", fmt.Sprintf("k%d", i), i, exec)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	close(release)
	primaries := 0
	for i, tk := range tickets {
		_, err := tk.Wait(context.Background())
		switch i {
		case 1:
			if err != nil {
				t.Errorf("item 1: %v, want success", err)
			}
			if tk.FaultPrimary() {
				t.Error("successful member reports FaultPrimary")
			}
		default:
			if err == nil || !strings.Contains(err.Error(), "wire fault") {
				t.Errorf("item %d err = %v, want wire fault", i, err)
			}
			if tk.FaultPrimary() {
				primaries++
			}
		}
	}
	if primaries != 1 {
		t.Errorf("primary faults = %d, want exactly 1 per wire call", primaries)
	}

	// A single-task mux batch is its own wire call: its failure is always
	// primary.
	tk, err := submitMux(context.Background(), d, "s", "solo", 0, exec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err == nil {
		t.Fatal("solo item should fail")
	}
	if !tk.FaultPrimary() {
		t.Error("single-task batch failure must be primary")
	}
}

// TestMuxExecPanicFailsGroupNotWorker pins panic containment: a
// panicking exec resolves every member with an error instead of killing
// the worker goroutine, and the queue keeps serving afterwards.
func TestMuxExecPanicFailsGroupNotWorker(t *testing.T) {
	d := New(Config{Limits: Limits{Concurrency: 1, QueueDepth: 16}})
	defer d.Close()
	release, _ := occupy(t, d, "s")

	boom := func(ctx context.Context, items []any) ([]any, []error) {
		panic("exec exploded")
	}
	a, err := submitMux(context.Background(), d, "s", "a", 1, boom)
	if err != nil {
		t.Fatal(err)
	}
	b, err := submitMux(context.Background(), d, "s", "b", 2, boom)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	for i, tk := range []*Ticket{a, b} {
		if _, err := tk.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("member %d err = %v, want contained panic", i, err)
		}
	}
	// The worker survived: plain work still runs.
	tk, err := d.Submit(context.Background(), "s", "", func(context.Context) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatal(err)
	}
	v, err := tk.Wait(context.Background())
	if err != nil || v.(string) != "ok" {
		t.Fatalf("post-panic submit = (%v, %v)", v, err)
	}
}

// TestRunGroupSkipsAbandonedMembers pins that a member whose waiters all
// left before the drain ran resolves as cancelled and is NOT handed to
// the exec — the group shrinks instead.
func TestRunGroupSkipsAbandonedMembers(t *testing.T) {
	d := New(Config{Limits: Limits{Concurrency: 1, QueueDepth: 16}})
	defer d.Close()
	release, _ := occupy(t, d, "s")

	var calls atomic.Int64
	sizes := make(chan int, 2)
	exec := echoExec(&calls, sizes)
	ctx, cancel := context.WithCancel(context.Background())
	doomed, err := submitMux(ctx, d, "s", "doomed", "doomed", exec)
	if err != nil {
		t.Fatal(err)
	}
	live, err := submitMux(context.Background(), d, "s", "live", "live", exec)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // abandon the first member before the worker frees up
	if _, err := doomed.Wait(ctx); err == nil {
		t.Fatal("abandoned member should resolve with an error")
	}
	close(release)
	v, err := live.Wait(context.Background())
	if err != nil {
		t.Fatalf("live member: %v", err)
	}
	if v.(string) != "live" {
		t.Errorf("live member value = %v", v)
	}
	if got := <-sizes; got != 1 {
		t.Errorf("group size = %d, want 1 (abandoned member excluded)", got)
	}
}

// TestGroupContextOutlivesMemberAbandon pins the merged-context rule:
// one member abandoning mid-run must NOT cancel the shared wire call
// while another member still waits.
func TestGroupContextOutlivesMemberAbandon(t *testing.T) {
	d := New(Config{Limits: Limits{Concurrency: 1, QueueDepth: 16}})
	defer d.Close()
	release, _ := occupy(t, d, "s")

	started := make(chan struct{})
	finish := make(chan struct{})
	var sawCancel atomic.Bool
	exec := func(ctx context.Context, items []any) ([]any, []error) {
		close(started)
		select {
		case <-finish:
		case <-ctx.Done():
			sawCancel.Store(true)
		}
		vals := make([]any, len(items))
		copy(vals, items)
		return vals, make([]error, len(items))
	}
	ctx, cancel := context.WithCancel(context.Background())
	quitter, err := submitMux(ctx, d, "s", "quitter", "q", exec)
	if err != nil {
		t.Fatal(err)
	}
	stayer, err := submitMux(context.Background(), d, "s", "stayer", "st", exec)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("exec never started")
	}
	// The quitter walks away mid-run; the stayer still waits.
	cancel()
	if _, err := quitter.Wait(ctx); err == nil {
		t.Error("quitter should resolve with its abandonment error")
	}
	time.Sleep(20 * time.Millisecond) // give a wrong implementation time to cancel
	close(finish)
	v, err := stayer.Wait(context.Background())
	if err != nil {
		t.Fatalf("stayer: %v", err)
	}
	if v.(string) != "st" {
		t.Errorf("stayer value = %v", v)
	}
	if sawCancel.Load() {
		t.Error("group context was cancelled while a member still waited")
	}
}

// TestPumpRefusalMidDrainIsFinal is TestPumpRefusalIsFinal for a mux
// batch the pump meets while draining a group: refused by the one
// Refuse call that answers true, it resolves with ErrRefused and never
// reaches the exec, while the group it would have joined still runs.
func TestPumpRefusalMidDrainIsFinal(t *testing.T) {
	var calls, refuseAt atomic.Int64
	d := New(Config{
		Limits: Limits{Concurrency: 1, QueueDepth: 16},
		Refuse: func(string) bool { return calls.Add(1) == refuseAt.Load() },
	})
	defer d.Close()
	release, _ := occupy(t, d, "s") // the pump and the worker each ask once
	var mu sync.Mutex
	var executed []any
	exec := func(ctx context.Context, items []any) ([]any, []error) {
		mu.Lock()
		executed = append(executed, items...)
		mu.Unlock()
		return items, make([]error, len(items))
	}
	head, err := submitMux(context.Background(), d, "s", "head", "head", exec)
	if err != nil {
		t.Fatal(err)
	}
	// The pump asks once more as it takes the head, then parks at the
	// busy worker slot.
	deadline := time.Now().Add(2 * time.Second)
	for calls.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("pump never took the head batch")
		}
		time.Sleep(time.Millisecond)
	}
	tail, err := submitMux(context.Background(), d, "s", "tail", "tail", exec)
	if err != nil {
		t.Fatal(err)
	}
	refuseAt.Store(4) // the pump's check of the tail as it drains
	close(release)
	if v, err := head.Wait(context.Background()); err != nil || v != "head" {
		t.Errorf("head = (%v, %v), want (head, nil)", v, err)
	}
	if _, err := tail.Wait(context.Background()); !errors.Is(err, ErrRefused) {
		t.Errorf("tail err = %v, want ErrRefused", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(executed) != 1 || executed[0] != "head" {
		t.Errorf("exec ran items %v, want [head]", executed)
	}
	if st := stat(t, d, "s"); st.Refused != 1 {
		t.Errorf("Refused = %d, want 1", st.Refused)
	}
}
