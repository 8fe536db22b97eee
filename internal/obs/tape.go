package obs

import "sync"

// Tape is a Recorder that keeps its calls in the order they were made and
// can replay them into another Recorder later. A unit of work that runs
// beside others records onto its own tape; replaying the tapes in a fixed
// order then feeds a shared recorder exactly what running the units one
// after another would have. The zero value is an empty tape, safe for
// concurrent use.
type Tape struct {
	mu    sync.Mutex
	calls []tapeCall
}

// tapeCall is one recorded call: an Add of delta when add is set, else a
// Gauge (gauge set) or an Observe of value.
type tapeCall struct {
	name       string
	add, gauge bool
	delta      int64
	value      float64
}

func (t *Tape) Add(name string, delta int64) {
	t.record(tapeCall{name: name, add: true, delta: delta})
}

func (t *Tape) Gauge(name string, value float64) {
	t.record(tapeCall{name: name, gauge: true, value: value})
}

func (t *Tape) Observe(series string, value float64) {
	t.record(tapeCall{name: series, value: value})
}

func (t *Tape) record(c tapeCall) {
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

// Replay makes every recorded call on r, in the order it was recorded.
func (t *Tape) Replay(r Recorder) {
	t.mu.Lock()
	calls := t.calls
	t.mu.Unlock()
	for _, c := range calls {
		switch {
		case c.add:
			r.Add(c.name, c.delta)
		case c.gauge:
			r.Gauge(c.name, c.value)
		default:
			r.Observe(c.name, c.value)
		}
	}
}
