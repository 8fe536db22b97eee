package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span kinds. A traced run records run → exp → stage → layer spans for the
// batch workloads and op → layer spans for the service workloads.
const (
	kindRun   = "run"
	kindExp   = "exp"
	kindStage = "stage"
	kindLayer = "layer"
	kindOp    = "op"
)

// span is one timed interval recorded by the benchmark around a call into
// the system. Start and End are seconds since the tracer began; Parent is
// the id of the enclosing span, -1 for a root. Ids are indexes into the
// tracer's span list.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory for one workload run. It is used from one
// goroutine at a time; concurrent operations are timed by their own code and
// added afterwards with add.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

func (t *tracer) at(ts time.Time) float64 { return ts.Sub(t.t0).Seconds() }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(kind, name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Kind: kind, Name: name, Start: t.at(time.Now())})
	t.open = append(t.open, id)
}

// end closes the innermost open span.
func (t *tracer) end() {
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.at(time.Now())
}

// within runs f inside a span.
func (t *tracer) within(kind, name string, f func()) {
	t.begin(kind, name)
	defer t.end()
	f()
}

// add records a finished span under parent (-1 for a root) and returns its id.
func (t *tracer) add(parent int, kind, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Kind: kind, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's duration minus the part of it that its
// children's intervals cover (their union, so overlapping children count
// once).
func selfTimes(spans []span) []float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]float64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := 0.0
	curLo, curHi := iv[0][0], iv[0][1]
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, v := range iv[1:] {
		if v[0] > curHi {
			flush()
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	flush()
	return total
}

// selfByName sums self time per span name over spans of one kind, and
// counts the spans.
func selfByName(spans []span, self []float64, kind string) (secs map[string]float64, calls map[string]int) {
	secs, calls = make(map[string]float64), make(map[string]int)
	for i, s := range spans {
		if s.Kind == kind {
			secs[s.Name] += self[i]
			calls[s.Name]++
		}
	}
	return secs, calls
}

// coverage is the layer spans' total self time over the total duration of
// the spans of kind outer (stages, or service operations): the share of
// that time the spans around layer calls account for.
func coverage(spans []span, self []float64, outer string) float64 {
	var layers, whole float64
	for i, s := range spans {
		switch s.Kind {
		case kindLayer:
			layers += self[i]
		case outer:
			whole += s.End - s.Start
		}
	}
	if whole == 0 {
		return 0
	}
	return layers / whole
}
