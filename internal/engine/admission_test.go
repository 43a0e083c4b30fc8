package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmitterInteractivePriority pins the two-class dispatch order: when a
// slot frees up, the oldest waiting interactive request is granted before any
// batch request, regardless of arrival order.
func TestAdmitterInteractivePriority(t *testing.T) {
	a := newAdmitter(1, -1)
	if err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatalf("first acquire: %v", err)
	}

	order := make(chan Class, 2)
	var wg sync.WaitGroup
	start := func(c Class) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(context.Background(), c); err != nil {
				t.Errorf("acquire(%v): %v", c, err)
				return
			}
			order <- c
			a.release()
		}()
	}

	// Batch arrives first, then interactive.
	start(ClassBatch)
	waitFor(t, "batch waiter to park", func() bool { return a.depths()[ClassBatch] == 1 })
	start(ClassInteractive)
	waitFor(t, "interactive waiter to park", func() bool { return a.depths()[ClassInteractive] == 1 })

	a.release() // free the held slot: must go to the interactive waiter
	wg.Wait()
	if first := <-order; first != ClassInteractive {
		t.Fatalf("first dispatched class = %v, want interactive", first)
	}
	if second := <-order; second != ClassBatch {
		t.Fatalf("second dispatched class = %v, want batch", second)
	}
}

// TestAdmitterPerClassQueueBound pins the per-class MaxQueue semantics: a
// full batch queue sheds further batch arrivals but leaves interactive
// admission untouched, and the shed error carries the class.
func TestAdmitterPerClassQueueBound(t *testing.T) {
	a := newAdmitter(1, 1)
	if err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatalf("occupy worker: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.acquire(context.Background(), ClassBatch); err != nil {
			t.Errorf("queued batch acquire: %v", err)
			return
		}
		a.release()
	}()
	waitFor(t, "batch waiter to park", func() bool { return a.depths()[ClassBatch] == 1 })

	// Batch queue is full: the next batch arrival sheds, typed.
	err := a.acquire(context.Background(), ClassBatch)
	var oe *OverloadedError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch overflow error = %v, want *OverloadedError wrapping ErrOverloaded", err)
	}
	if oe.Class != ClassBatch {
		t.Fatalf("shed class = %v, want batch", oe.Class)
	}

	// Interactive still has its own queue slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.acquire(context.Background(), ClassInteractive); err != nil {
			t.Errorf("queued interactive acquire: %v", err)
			return
		}
		a.release()
	}()
	waitFor(t, "interactive waiter to park", func() bool { return a.depths()[ClassInteractive] == 1 })

	a.release()
	wg.Wait()
}

// TestAdmitterDeadlineShed pins deadline-aware shedding determinism: with
// observed service times and a queue ahead, a request whose deadline is
// provably unreachable is shed immediately — with a Retry-After derived from
// the same telemetry — while a request with slack is queued, not shed.
func TestAdmitterDeadlineShed(t *testing.T) {
	a := newAdmitter(1, -1)
	a.observe(ClassInteractive, 100*time.Millisecond)
	if got := a.serviceTimes()[ClassInteractive]; got != 100*time.Millisecond {
		t.Fatalf("seeded service time = %v, want 100ms", got)
	}

	if err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatalf("occupy worker: %v", err)
	}
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(context.Background(), ClassInteractive); err != nil {
				t.Errorf("queued acquire: %v", err)
				return
			}
			<-release
			a.release()
		}()
	}
	waitFor(t, "three waiters to park", func() bool { return a.depths()[ClassInteractive] == 3 })

	// Predicted wait is 3 × 100ms / 1 worker = 300ms; a 50ms deadline is
	// infeasible and must shed now, not time out in line.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	shedAt := time.Now()
	err := a.acquire(ctx, ClassInteractive)
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("infeasible deadline error = %v, want *OverloadedError", err)
	}
	if waited := time.Since(shedAt); waited > 40*time.Millisecond {
		t.Fatalf("shed took %v; must be immediate, not a queued timeout", waited)
	}
	// Retry-After = predicted wait + one service time = 400ms of telemetry.
	if oe.RetryAfter < 300*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want >= 300ms (telemetry-derived)", oe.RetryAfter)
	}

	// Same depth, generous deadline: queues instead of shedding.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.acquire(ctx2, ClassInteractive); err != nil {
			t.Errorf("feasible-deadline acquire: %v", err)
			return
		}
		a.release()
	}()
	waitFor(t, "feasible request to park", func() bool { return a.depths()[ClassInteractive] == 4 })

	close(release)
	a.release()
	wg.Wait()
}

// TestAdmitterCancelWhileQueued pins the give-up path: a waiter whose context
// is cancelled unparks cleanly, and a grant that raced the cancellation is
// passed on rather than leaked.
func TestAdmitterCancelWhileQueued(t *testing.T) {
	a := newAdmitter(1, -1)
	if err := a.acquire(context.Background(), ClassInteractive); err != nil {
		t.Fatalf("occupy worker: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx, ClassBatch) }()
	waitFor(t, "waiter to park", func() bool { return a.depths()[ClassBatch] == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	if d := a.depths(); d[ClassBatch] != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", d[ClassBatch])
	}
	// The held slot must still release back to the free pool.
	a.release()
	if !a.tryAcquire() {
		t.Fatal("slot leaked: tryAcquire failed on an idle pool")
	}
}

// TestEngineClassStats pins the per-class telemetry surfaced through Stats:
// queries are counted under their class, completed computations feed the
// service-time EWMA, and an invalid class sanitizes to interactive.
func TestEngineClassStats(t *testing.T) {
	idx := testIndex(t, 100)
	e, err := New(idx, Options{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := e.Do(ctx, Request{Source: 1}); err != nil {
		t.Fatalf("interactive Do: %v", err)
	}
	if _, err := e.Do(ctx, Request{Source: 2, Class: ClassBatch, NoCache: true}); err != nil {
		t.Fatalf("batch Do: %v", err)
	}
	if _, err := e.Do(ctx, Request{Source: 3, Class: Class(99), NoCache: true}); err != nil {
		t.Fatalf("invalid-class Do: %v", err)
	}
	st := e.Stats()
	if st.Interactive.Queries != 2 {
		t.Fatalf("Interactive.Queries = %d, want 2 (incl. sanitized class)", st.Interactive.Queries)
	}
	if st.Batch.Queries != 1 {
		t.Fatalf("Batch.Queries = %d, want 1", st.Batch.Queries)
	}
	if st.Interactive.AvgServiceNs <= 0 {
		t.Fatalf("Interactive.AvgServiceNs = %d, want > 0", st.Interactive.AvgServiceNs)
	}
	if st.Batch.AvgServiceNs <= 0 {
		t.Fatalf("Batch.AvgServiceNs = %d, want > 0", st.Batch.AvgServiceNs)
	}
}

// TestEngineBatchFloodDoesNotQueueInteractive pins the acceptance property at
// the engine level: with every worker busy and a deep batch backlog, a new
// interactive request is dispatched by the very next free slot — its queueing
// delay is independent of the batch queue depth.
func TestEngineBatchFloodDoesNotQueueInteractive(t *testing.T) {
	idx := testIndex(t, 100)
	e, err := New(idx, Options{Workers: 1, MaxQueue: -1, CacheSize: 0})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	release := holdWorkers(t, e) // a running computation holds the worker
	ctx := context.Background()
	var wg sync.WaitGroup
	// A deep batch backlog.
	const flood = 8
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if _, err := e.Do(ctx, Request{Source: u, Class: ClassBatch, NoCache: true}); err != nil {
				t.Errorf("batch Do(%d): %v", u, err)
			}
		}(i)
	}
	waitFor(t, "batch backlog to build", func() bool {
		return e.adm.depths()[ClassBatch] == flood
	})

	var interactiveDone atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Do(ctx, Request{Source: 50, Class: ClassInteractive, NoCache: true}); err != nil {
			t.Errorf("interactive Do: %v", err)
		}
		interactiveDone.Store(true)
	}()
	waitFor(t, "interactive request to park", func() bool {
		return e.adm.depths()[ClassInteractive] == 1
	})

	// Free the worker: the slot goes to the interactive waiter first, so it
	// is the next one through, ahead of the whole batch backlog.
	release()
	if d := e.adm.depths(); d != [numClasses]int{0, flood} {
		t.Fatalf("queue depths right after one release = %v, want [0 %d]", d, flood)
	}
	waitFor(t, "interactive request to finish ahead of the flood", func() bool {
		return interactiveDone.Load()
	})
	wg.Wait()
	st := e.Stats()
	if st.Interactive.Queries != 1 || st.Batch.Queries != int64(flood) {
		t.Fatalf("class queries = %d/%d, want 1/%d", st.Interactive.Queries, st.Batch.Queries, flood)
	}
}
