// Package sim implements a minimal discrete-event simulation kernel.
//
// The MAC coexistence simulator (package mac) runs on this kernel: events
// are closures scheduled at virtual timestamps, executed in time order with
// a deterministic tiebreak (insertion order), so simulations are exactly
// reproducible for a given seed.
package sim

import (
	"container/heap"
	"time"
)

// event is a scheduled action.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
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
	now   time.Duration
	queue eventQueue
	seq   uint64
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel { return &Kernel{} }

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// (before Now) panics: it would silently reorder causality.
func (k *Kernel) At(at time.Duration, fn func()) {
	if at < k.now {
		panic("sim: scheduling event in the past")
	}
	heap.Push(&k.queue, &event{at: at, seq: k.seq, fn: fn})
	k.seq++
}

// After schedules fn to run delay after the current virtual time.
func (k *Kernel) After(delay time.Duration, fn func()) {
	if delay < 0 {
		panic("sim: negative delay")
	}
	k.At(k.now+delay, fn)
}

// Run executes events in timestamp order until the queue drains or virtual
// time would exceed horizon. Events scheduled exactly at the horizon still
// run.
func (k *Kernel) Run(horizon time.Duration) {
	for len(k.queue) > 0 {
		next := k.queue[0]
		if next.at > horizon {
			// Leave future events queued; advance the clock to the
			// horizon so repeated Run calls resume consistently.
			k.now = horizon
			return
		}
		heap.Pop(&k.queue)
		k.now = next.at
		next.fn()
	}
}
