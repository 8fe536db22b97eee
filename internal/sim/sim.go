// Package sim implements a minimal discrete-event simulation kernel.
//
// The MAC coexistence simulator (package mac) runs on this kernel: events
// are closures scheduled at virtual timestamps, executed in time order with
// a deterministic tiebreak (insertion order), so simulations are exactly
// reproducible for a given seed.
package sim

import "time"

// event is a scheduled action.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before orders events by timestamp, then by insertion.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Kernel is a discrete-event scheduler. The zero value is ready to use.
//
// Kernel is not safe for concurrent use; a simulation is a single logical
// thread of control.
type Kernel struct {
	now time.Duration
	// queue is a binary min-heap of pending events under before.
	queue []event
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
	k.queue = append(k.queue, event{at: at, seq: k.seq, fn: fn})
	k.seq++
	k.up(len(k.queue) - 1)
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
		last := len(k.queue) - 1
		k.queue[0] = k.queue[last]
		k.queue[last] = event{} // release the closure
		k.queue = k.queue[:last]
		if last > 0 {
			k.down(0)
		}
		k.now = next.at
		next.fn()
	}
}

// up moves the event at index j toward the root until its parent is before
// it.
func (k *Kernel) up(j int) {
	q := k.queue
	e := q[j]
	for j > 0 {
		parent := (j - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[j] = q[parent]
		j = parent
	}
	q[j] = e
}

// down moves the event at index i toward the leaves until it is before both
// children.
func (k *Kernel) down(i int) {
	q := k.queue
	e := q[i]
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if r := c + 1; r < len(q) && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}
