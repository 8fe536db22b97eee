package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// blockingRun returns a RunFunc that parks every job on gate until released
// (or its context is canceled), then returns its payload as the result.
func blockingRun(gate chan struct{}) RunFunc {
	return func(ctx context.Context, w Work) ([]byte, error) {
		select {
		case <-gate:
			return []byte(w.Payload.(string)), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// terminal reports whether a job in state s will never change again.
func terminal(s State) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

func waitState(t *testing.T, p *Pool, id string, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s, ok := p.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if s.State == want {
			return s
		}
		if terminal(s.State) && !terminal(want) {
			t.Fatalf("job %s reached terminal state %s while waiting for %s (err %q)", id, s.State, want, s.Error)
		}
		time.Sleep(time.Millisecond)
	}
	s, _ := p.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, s.State, want)
	return Snapshot{}
}

// TestLifecycle walks one job through queued → running → done and checks
// the snapshot's fields at each step.
func TestLifecycle(t *testing.T) {
	gate := make(chan struct{})
	p := NewPool(1, 4, blockingRun(gate))
	defer p.Shutdown(0)

	s, err := p.Submit("e1", "k1", "payload-bytes")
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "j1" || s.Experiment != "e1" || s.Key != "k1" || s.Submitted.IsZero() {
		t.Errorf("queued snapshot = %+v", s)
	}
	running := waitState(t, p, s.ID, StateRunning)
	if running.Started.IsZero() {
		t.Error("running job has no start time")
	}
	close(gate)
	done := waitState(t, p, s.ID, StateDone)
	if string(done.Result) != "payload-bytes" {
		t.Errorf("result = %q", done.Result)
	}
	if done.Finished.Before(done.Started) {
		t.Errorf("finished %v before started %v", done.Finished, done.Started)
	}
	if done.CacheHit {
		t.Error("worker-run job marked as cache hit")
	}
}

// TestBackpressure fills the queue behind a blocked worker and checks the
// overflow submission fails fast with ErrQueueFull — the 429 contract.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	p := NewPool(1, 2, blockingRun(gate))
	defer func() { close(gate); p.Shutdown(time.Second) }()

	// First job occupies the worker; two more fill the queue.
	first, err := p.Submit("e1", "k", "a")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, first.ID, StateRunning)
	for i := 0; i < 2; i++ {
		if _, err := p.Submit("e1", "k", "b"); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if q, _ := p.Depth(); q != 2 {
		t.Errorf("queued depth = %d, want 2", q)
	}
	if _, err := p.Submit("e1", "k", "c"); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit: err = %v, want ErrQueueFull", err)
	}
}

// TestFailure: a failing RunFunc lands the job in StateFailed with the
// error preserved.
func TestFailure(t *testing.T) {
	p := NewPool(1, 1, func(ctx context.Context, w Work) ([]byte, error) {
		return nil, fmt.Errorf("boom %s", w.ID)
	})
	defer p.Shutdown(time.Second)
	s, err := p.Submit("e1", "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, p, s.ID, StateFailed)
	if failed.Error != "boom j1" {
		t.Errorf("error = %q", failed.Error)
	}
}

// TestComplete records a cache hit: born done, result attached, no worker
// involved.
func TestComplete(t *testing.T) {
	p := NewPool(1, 1, blockingRun(make(chan struct{})))
	defer p.Shutdown(0)
	s, err := p.Complete("e1", "k1", []byte("cached"))
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StateDone || !s.CacheHit || string(s.Result) != "cached" {
		t.Errorf("cache-hit snapshot = %+v", s)
	}
	got, ok := p.Get(s.ID)
	if !ok || got.State != StateDone || !got.CacheHit {
		t.Errorf("Get(%s) = %+v, %v", s.ID, got, ok)
	}
}

// TestShutdownDrain is the drain contract: queued jobs cancel immediately
// with status retained, running jobs get their contexts canceled after the
// grace window, Submit starts failing with ErrDraining, and no job's status
// is dropped.
func TestShutdownDrain(t *testing.T) {
	gate := make(chan struct{}) // never released: jobs finish only via cancel
	p := NewPool(1, 4, blockingRun(gate))

	running, err := p.Submit("e1", "k", "r")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, running.ID, StateRunning)
	queued, err := p.Submit("e1", "k", "q")
	if err != nil {
		t.Fatal(err)
	}

	sum := p.Shutdown(10 * time.Millisecond)
	if sum.Canceled != 2 || sum.Done != 0 || sum.Failed != 0 {
		t.Errorf("summary = %+v, want 2 canceled", sum)
	}
	for _, id := range []string{running.ID, queued.ID} {
		s, ok := p.Get(id)
		if !ok {
			t.Fatalf("job %s status dropped by drain", id)
		}
		if s.State != StateCanceled || s.Finished.IsZero() {
			t.Errorf("job %s = %+v, want canceled with a finish time", id, s)
		}
	}
	if _, err := p.Submit("e1", "k", "late"); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown: err = %v, want ErrDraining", err)
	}
	if _, err := p.Complete("e1", "k", nil); !errors.Is(err, ErrDraining) {
		t.Errorf("complete after shutdown: err = %v, want ErrDraining", err)
	}
}

// TestShutdownGraceful: running jobs that finish inside the grace window
// land in StateDone, not canceled.
func TestShutdownGraceful(t *testing.T) {
	started := make(chan struct{}, 2)
	p := NewPool(2, 4, func(ctx context.Context, w Work) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-time.After(20 * time.Millisecond):
			return []byte("ok"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	for i := 0; i < 2; i++ {
		if _, err := p.Submit("e1", "k", nil); err != nil {
			t.Fatal(err)
		}
	}
	// Both workers must have picked their job up before the drain begins,
	// or it legally cancels them while queued.
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("workers never started the jobs")
		}
	}
	sum := p.Shutdown(5 * time.Second)
	if sum.Done != 2 || sum.Failed != 0 || sum.Canceled != 0 {
		t.Errorf("summary = %+v, want 2 done", sum)
	}
	// Shutdown is idempotent.
	if again := p.Shutdown(0); again != sum {
		t.Errorf("second Shutdown = %+v, first = %+v", again, sum)
	}
}

// TestConcurrentSubmitters hammers Submit/Get/List/Depth from many
// goroutines while workers churn; run under -race (ci.sh does) this is the
// pool's data-race gate.
func TestConcurrentSubmitters(t *testing.T) {
	p := NewPool(4, 64, func(ctx context.Context, w Work) ([]byte, error) {
		return []byte(w.ID), nil
	})
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if s, err := p.Submit("e1", "k", nil); err == nil {
					mu.Lock()
					accepted++
					mu.Unlock()
					p.Get(s.ID)
				}
				p.List()
				p.Depth()
			}
		}()
	}
	wg.Wait()
	sum := p.Shutdown(5 * time.Second)
	if total := sum.Done + sum.Failed + sum.Canceled; total != accepted {
		t.Errorf("terminal states %d != accepted %d", total, accepted)
	}
	if len(p.List()) != accepted {
		t.Errorf("List has %d jobs, accepted %d", len(p.List()), accepted)
	}
}
