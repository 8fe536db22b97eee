// Package obs is the repository's observability layer: a tiny metrics
// registry the experiment engine threads through RunConfig into every
// subsystem that has something worth watching — per-node Tx/Rx traffic and
// route-cache behaviour in the WSN simulator, per-epoch training curves and
// delivery rollups in MicroDeep, per-stage timings in the harness.
//
// The design constraints come straight from the reproduction contract:
//
//   - Zero overhead when disabled. Every instrumented call site guards on a
//     nil Recorder (the RunConfig default), so the fault-free, metrics-free
//     path allocates and branches exactly as before.
//   - Observation never perturbs results. A Recorder only ever reads values
//     the computation already produced; no rng stream is consumed and no
//     reduction is reordered, so experiment summaries are byte-identical
//     with the recorder disabled and enabled.
//   - Deterministic exports. Snapshots marshal with sorted keys, and the
//     Prometheus text writer emits metrics in sorted order, so two runs at
//     the same seed produce identical output once wall-time metrics are
//     stripped.
//
// Nondeterministic metrics — anything derived from the wall clock — must be
// named with the WallTimePrefix ("walltime_") so Snapshot.Deterministic and
// downstream golden checks can strip them mechanically.
package obs

import (
	"sort"
	"sync"
)

// WallTimePrefix is the mandatory name prefix for metrics whose values are
// not deterministic (stage durations, run times). Snapshot.Deterministic
// drops every metric carrying it.
const WallTimePrefix = "walltime_"

// Recorder receives metric updates. Implementations must be safe for
// concurrent use: parallel experiment runs may legally share one recorder.
//
// Three shapes cover everything the experiments emit:
//
//   - Add accumulates a named counter (route-cache hits, gossip rounds).
//   - Gauge sets a named scalar to its latest value (per-node snapshots,
//     cache sizes, stage seconds).
//   - Observe appends one point to a named series (per-epoch loss curves,
//     per-node Tx/Rx sweeps); points retain append order.
type Recorder interface {
	Add(name string, delta int64)
	Gauge(name string, value float64)
	Observe(series string, value float64)
}

// Snapshotter is implemented by recorders that can export their state; the
// experiment harness uses it to attach a Metrics block to Result without
// widening the Recorder interface every call site depends on.
type Snapshotter interface {
	Snapshot() *Snapshot
}

// RunSequencer is implemented by recorders that can number the runs sharing
// them. The experiment harness claims a run number at the start of every run
// and, from the second run on, prefixes that run's metric names with
// "run<N>_", so two runs sharing one recorder — the documented
// RunConfig.Clone behaviour — can never clobber each other's config gauges
// or interleave their series. The first run keeps unprefixed names, so a
// single-run registry (the common case) exports exactly the bytes it always
// did.
type RunSequencer interface {
	// NextRun returns 1 on the first call and counts up; each call claims
	// one run. Implementations must be safe for concurrent use.
	NextRun() int
}

// Registry is the standard Recorder: mutex-guarded maps of counters, gauges,
// and series. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	runs     int
	counters map[string]int64
	gauges   map[string]float64
	series   map[string][]float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		series:   make(map[string][]float64),
	}
}

// Add accumulates delta into the named counter.
func (r *Registry) Add(name string, delta int64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Gauge sets the named gauge to value.
func (r *Registry) Gauge(name string, value float64) {
	r.mu.Lock()
	r.gauges[name] = value
	r.mu.Unlock()
}

// Observe appends value to the named series.
func (r *Registry) Observe(series string, value float64) {
	r.mu.Lock()
	r.series[series] = append(r.series[series], value)
	r.mu.Unlock()
}

// NextRun implements RunSequencer: it claims and returns the next run
// number for a registry shared by several runs.
func (r *Registry) NextRun() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	return r.runs
}

// WithPrefix returns a Recorder that prepends prefix to every metric name
// before forwarding to inner. Wall-time metrics keep their WallTimePrefix
// outermost — "walltime_stage_total_seconds" becomes
// "walltime_<prefix>stage_total_seconds" — so Snapshot.Deterministic still
// strips every nondeterministic metric of a prefixed run. The wrapper
// forwards Snapshot and NextRun to inner when inner implements them, so a
// prefixed view of a registry still exports the whole registry and still
// numbers runs globally.
func WithPrefix(inner Recorder, prefix string) Recorder {
	return &prefixed{inner: inner, prefix: prefix}
}

type prefixed struct {
	inner  Recorder
	prefix string
}

func (p *prefixed) name(n string) string {
	if hasWallTimePrefix(n) {
		return WallTimePrefix + p.prefix + n[len(WallTimePrefix):]
	}
	return p.prefix + n
}

func (p *prefixed) Add(name string, delta int64)     { p.inner.Add(p.name(name), delta) }
func (p *prefixed) Gauge(name string, value float64) { p.inner.Gauge(p.name(name), value) }
func (p *prefixed) Observe(series string, v float64) { p.inner.Observe(p.name(series), v) }

// Snapshot forwards to the wrapped recorder, so the harness's Result.Metrics
// attachment works unchanged for prefixed runs. It returns nil when inner
// cannot snapshot; the harness type-asserts Snapshotter first.
func (p *prefixed) Snapshot() *Snapshot {
	if s, ok := p.inner.(Snapshotter); ok {
		return s.Snapshot()
	}
	return nil
}

// NextRun forwards run numbering to the wrapped recorder, so runs handed an
// already-prefixed view still share the underlying registry's sequence.
func (p *prefixed) NextRun() int {
	if s, ok := p.inner.(RunSequencer); ok {
		return s.NextRun()
	}
	return 1
}

// Snapshot returns a deep copy of the registry's current state; the registry
// keeps accumulating independently afterwards.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for k, v := range r.counters {
			s.Counters[k] = v
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for k, v := range r.gauges {
			s.Gauges[k] = v
		}
	}
	if len(r.series) > 0 {
		s.Series = make(map[string][]float64, len(r.series))
		for k, v := range r.series {
			s.Series[k] = append([]float64(nil), v...)
		}
	}
	return s
}

// Snapshot is an exported point-in-time view of a registry. It marshals to
// JSON with sorted keys (encoding/json sorts map keys), so identical runs
// produce identical bytes; it is the type behind Result.Metrics.
type Snapshot struct {
	Counters map[string]int64     `json:"counters,omitempty"`
	Gauges   map[string]float64   `json:"gauges,omitempty"`
	Series   map[string][]float64 `json:"series,omitempty"`
}

// Deterministic returns a copy of the snapshot with every wall-time metric
// (names starting with WallTimePrefix) removed — the form golden checks
// compare across runs.
func (s *Snapshot) Deterministic() *Snapshot {
	keep := &Snapshot{}
	for k, v := range s.Counters {
		if !hasWallTimePrefix(k) {
			if keep.Counters == nil {
				keep.Counters = make(map[string]int64)
			}
			keep.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if !hasWallTimePrefix(k) {
			if keep.Gauges == nil {
				keep.Gauges = make(map[string]float64)
			}
			keep.Gauges[k] = v
		}
	}
	for k, v := range s.Series {
		if !hasWallTimePrefix(k) {
			if keep.Series == nil {
				keep.Series = make(map[string][]float64)
			}
			keep.Series[k] = append([]float64(nil), v...)
		}
	}
	return keep
}

func hasWallTimePrefix(name string) bool {
	return len(name) >= len(WallTimePrefix) && name[:len(WallTimePrefix)] == WallTimePrefix
}

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
