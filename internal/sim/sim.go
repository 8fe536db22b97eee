// Package sim implements a minimal discrete-event simulation kernel.
//
// The zeiot MAC coexistence simulator and the WSN message layer run on this
// kernel: events are closures scheduled at virtual timestamps, executed in
// time order with a deterministic tiebreak (insertion order), so simulations
// are exactly reproducible for a given seed.
package sim

import (
	"container/heap"
	"errors"
	"time"
)

// ErrStopped is returned by Run when the simulation was halted explicitly
// via Stop before the horizon was reached.
var ErrStopped = errors.New("sim: stopped")

// Event is a scheduled action.
type Event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	dead bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.dead = true }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*Event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Kernel is a discrete-event scheduler. The zero value is ready to use.
//
// Kernel is not safe for concurrent use; a simulation is a single logical
// thread of control.
type Kernel struct {
	now     time.Duration
	queue   eventQueue
	seq     uint64
	stopped bool
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (k *Kernel) At(at time.Duration, fn func()) *Event {
	if at < k.now {
		panic("sim: scheduling event in the past")
	}
	e := &Event{at: at, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.queue, e)
	return e
}

// After schedules fn to run delay after the current virtual time.
func (k *Kernel) After(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		panic("sim: negative delay")
	}
	return k.At(k.now+delay, fn)
}

// Stop halts the run loop after the currently executing event returns.
func (k *Kernel) Stop() { k.stopped = true }

// Pending returns the number of events waiting in the queue, including
// cancelled events that have not yet been discarded.
func (k *Kernel) Pending() int { return len(k.queue) }

// Run executes events in timestamp order until the queue drains or virtual
// time would exceed horizon. Events scheduled exactly at the horizon still
// run. It returns ErrStopped if Stop was called, otherwise nil.
func (k *Kernel) Run(horizon time.Duration) error {
	k.stopped = false
	for len(k.queue) > 0 {
		if k.stopped {
			return ErrStopped
		}
		next := k.queue[0]
		if next.at > horizon {
			// Leave future events queued; advance the clock to the
			// horizon so repeated Run calls resume consistently.
			k.now = horizon
			return nil
		}
		heap.Pop(&k.queue)
		if next.dead {
			continue
		}
		k.now = next.at
		next.fn()
	}
	if k.stopped {
		return ErrStopped
	}
	return nil
}
