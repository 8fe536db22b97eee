// Package jobs is the scheduling core of the simulation-as-a-service
// daemon (cmd/zeiotd): a bounded job queue in front of a fixed worker pool,
// with per-job cancellable contexts, queryable status for every job ever
// accepted, and a graceful drain for shutdown.
//
// The package is deliberately ignorant of experiments and configs — a job
// carries an opaque payload and the pool calls one RunFunc — so the
// scheduling semantics are testable without training a single CNN:
//
//   - Backpressure is explicit: Submit fails fast with ErrQueueFull when the
//     queue is at capacity (the daemon maps it to HTTP 429) instead of
//     blocking the acceptor.
//   - Status is never dropped: every accepted job stays queryable through
//     its terminal state until the process exits, including jobs canceled
//     by a drain.
//   - Shutdown is two-phase: stop accepting (Submit returns ErrDraining),
//     give running jobs a grace window, then cancel their contexts and wait
//     for the workers to record terminal states.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's lifecycle position. Transitions are strictly
// queued → running → {done, failed, canceled}, except that a queued job can
// move straight to canceled when a drain empties the queue.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Submit/Shutdown error conditions. The daemon maps ErrQueueFull to
// HTTP 429 and ErrDraining to HTTP 503.
var (
	ErrQueueFull = errors.New("jobs: queue full")
	ErrDraining  = errors.New("jobs: pool is draining, not accepting jobs")
)

// Work is the immutable slice of a job handed to the RunFunc: everything a
// runner may read. The mutable lifecycle state stays inside the pool.
type Work struct {
	// ID is the pool-assigned job id ("j1", "j2", ...).
	ID string
	// Experiment and Key identify what to run and its canonical config
	// hash; the pool treats both as opaque labels.
	Experiment string
	Key        string
	// Payload is whatever the submitter attached (the daemon stores the
	// parsed RunConfig here).
	Payload any
}

// RunFunc executes one job. The context is canceled by Shutdown once the
// grace window expires; implementations must return promptly after
// cancellation (the experiment engine honours ctx at stage boundaries). The
// returned bytes become the job's result.
type RunFunc func(ctx context.Context, w Work) ([]byte, error)

// Snapshot is a point-in-time copy of one job's status, safe to retain.
// Result aliases the job's result bytes; callers must treat it as
// read-only. The daemon defines its own wire format on top of this, so the
// struct carries no JSON contract.
type Snapshot struct {
	ID         string
	Experiment string
	Key        string
	State      State
	CacheHit   bool
	Error      string
	Result     []byte
	Submitted  time.Time
	Started    time.Time
	Finished   time.Time
}

// job is the pool-internal record behind a Snapshot.
type job struct {
	work      Work
	state     State
	cacheHit  bool
	err       string
	result    []byte
	submitted time.Time
	started   time.Time
	finished  time.Time
}

func (j *job) snapshot() Snapshot {
	return Snapshot{
		ID:         j.work.ID,
		Experiment: j.work.Experiment,
		Key:        j.work.Key,
		State:      j.state,
		CacheHit:   j.cacheHit,
		Error:      j.err,
		Result:     j.result,
		Submitted:  j.submitted,
		Started:    j.started,
		Finished:   j.finished,
	}
}

// Summary is what Shutdown reports: terminal-state counts over every job
// the pool ever accepted.
type Summary struct {
	Done     int
	Failed   int
	Canceled int
}

// Pool is a bounded queue feeding a fixed set of workers. Create with
// NewPool; the zero value is not usable.
type Pool struct {
	run   RunFunc
	queue chan *job

	ctx    context.Context // parent of every job context
	cancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // insertion order, for List
	seq      int
	queued   int // accepted, not yet picked up by a worker
	running  int
	draining bool

	wg sync.WaitGroup // workers
}

// NewPool starts workers goroutines behind a queue of capacity queueCap.
// workers and queueCap floor at 1.
func NewPool(workers, queueCap int, run RunFunc) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		run:    run,
		queue:  make(chan *job, queueCap),
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*job),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Submit accepts a job for execution and returns its queued snapshot.
// It fails fast with ErrQueueFull when the queue is at capacity and
// ErrDraining once Shutdown has begun.
func (p *Pool) Submit(experiment, key string, payload any) (Snapshot, error) {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return Snapshot{}, ErrDraining
	}
	p.seq++
	j := &job{
		work:      Work{ID: fmt.Sprintf("j%d", p.seq), Experiment: experiment, Key: key, Payload: payload},
		state:     StateQueued,
		submitted: time.Now(),
	}
	select {
	case p.queue <- j:
	default:
		p.seq-- // not accepted; reuse the id
		p.mu.Unlock()
		return Snapshot{}, ErrQueueFull
	}
	p.jobs[j.work.ID] = j
	p.order = append(p.order, j.work.ID)
	p.queued++
	snap := j.snapshot()
	p.mu.Unlock()
	return snap, nil
}

// Complete records a job that never needs a worker — the daemon's cache
// hits: the job is born in StateDone carrying the cached result bytes, so
// job history and status queries treat served-from-cache submissions like
// any other job.
func (p *Pool) Complete(experiment, key string, result []byte) (Snapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return Snapshot{}, ErrDraining
	}
	p.seq++
	now := time.Now()
	j := &job{
		work:      Work{ID: fmt.Sprintf("j%d", p.seq), Experiment: experiment, Key: key},
		state:     StateDone,
		cacheHit:  true,
		result:    result,
		submitted: now,
		started:   now,
		finished:  now,
	}
	p.jobs[j.work.ID] = j
	p.order = append(p.order, j.work.ID)
	return j.snapshot(), nil
}

// Get returns the status of one job.
func (p *Pool) Get(id string) (Snapshot, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// List returns every job's status in submission order.
func (p *Pool) List() []Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Snapshot, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.jobs[id].snapshot())
	}
	return out
}

// Depth returns the current queue occupancy and running-job count — the
// daemon exports both as gauges.
func (p *Pool) Depth() (queued, running int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued, p.running
}

// worker drains the queue until it is closed by Shutdown. Jobs canceled
// while still queued are skipped — their terminal state was already
// recorded by the drain.
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.mu.Lock()
		if j.state != StateQueued {
			p.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(p.ctx)
		j.state = StateRunning
		j.started = time.Now()
		p.queued--
		p.running++
		p.mu.Unlock()

		result, err := p.run(ctx, j.work)
		canceled := ctx.Err() != nil // read before our own cancel below
		cancel()

		p.mu.Lock()
		j.finished = time.Now()
		p.running--
		switch {
		case err == nil:
			j.state = StateDone
			j.result = result
		case errors.Is(err, context.Canceled) || canceled:
			j.state = StateCanceled
			j.err = err.Error()
		default:
			j.state = StateFailed
			j.err = err.Error()
		}
		p.mu.Unlock()
	}
}

// Shutdown drains the pool: it stops accepting submissions, cancels every
// job still waiting in the queue (terminal state recorded, never dropped),
// gives running jobs up to grace to finish naturally, then cancels their
// contexts and waits for the workers to record terminal states. It returns
// the terminal-state counts over every job ever accepted. Shutdown is
// idempotent; concurrent calls both wait for the same drain.
func (p *Pool) Shutdown(grace time.Duration) Summary {
	p.mu.Lock()
	already := p.draining
	p.draining = true
	if !already {
		// Cancel everything still queued. The channel keeps the *job
		// pointers; workers skip entries that left StateQueued.
		now := time.Now()
		for _, id := range p.order {
			j := p.jobs[id]
			if j.state == StateQueued {
				j.state = StateCanceled
				j.err = "canceled: server draining"
				j.finished = now
				p.queued--
			}
		}
		close(p.queue)
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	if grace > 0 {
		t := time.NewTimer(grace)
		select {
		case <-done:
			t.Stop()
		case <-t.C:
		}
	}
	// Cancel whatever is still running (no-op if everything finished) and
	// wait for the workers to write terminal states.
	p.cancel()
	<-done

	p.mu.Lock()
	defer p.mu.Unlock()
	var s Summary
	for _, j := range p.jobs {
		switch j.state {
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCanceled:
			s.Canceled++
		}
	}
	return s
}
