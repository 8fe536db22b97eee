package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add("hits", 2)
	r.Add("hits", 3)
	r.Gauge("nodes", 50)
	r.Gauge("nodes", 49) // latest value wins
	r.Observe("loss", 0.5)
	r.Observe("loss", 0.25)

	s := r.Snapshot()
	if s.Counters["hits"] != 5 {
		t.Errorf("counter hits = %d, want 5", s.Counters["hits"])
	}
	if s.Gauges["nodes"] != 49 {
		t.Errorf("gauge nodes = %g, want 49", s.Gauges["nodes"])
	}
	if len(s.Series["loss"]) != 2 || s.Series["loss"][0] != 0.5 || s.Series["loss"][1] != 0.25 {
		t.Errorf("series loss = %v", s.Series["loss"])
	}

	// The snapshot is a deep copy: later registry activity must not leak in.
	r.Add("hits", 100)
	r.Observe("loss", 9)
	if s.Counters["hits"] != 5 || len(s.Series["loss"]) != 2 {
		t.Error("snapshot aliases live registry state")
	}
}

func TestDeterministicStripsWallTime(t *testing.T) {
	r := NewRegistry()
	r.Add("transfers", 7)
	r.Add(WallTimePrefix+"ticks", 3)
	r.Gauge("acc", 0.9)
	r.Gauge(WallTimePrefix+"stage_train_seconds", 1.23)
	r.Observe("loss", 0.5)
	r.Observe(WallTimePrefix+"epoch_seconds", 0.1)

	d := r.Snapshot().Deterministic()
	if _, ok := d.Counters[WallTimePrefix+"ticks"]; ok {
		t.Error("wall-time counter survived Deterministic")
	}
	if _, ok := d.Gauges[WallTimePrefix+"stage_train_seconds"]; ok {
		t.Error("wall-time gauge survived Deterministic")
	}
	if _, ok := d.Series[WallTimePrefix+"epoch_seconds"]; ok {
		t.Error("wall-time series survived Deterministic")
	}
	if d.Counters["transfers"] != 7 || d.Gauges["acc"] != 0.9 || len(d.Series["loss"]) != 1 {
		t.Errorf("deterministic snapshot lost real metrics: %+v", d)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() []byte {
		r := NewRegistry()
		r.Add("b_counter", 2)
		r.Add("a_counter", 1)
		r.Gauge("z", 26)
		r.Gauge("a", 1)
		r.Observe("s", 0.5)
		out, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(build(), build()) {
		t.Error("identical registries marshal to different JSON")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Add("cache_hits", 12)
	r.Gauge("max cost", 360) // space must sanitize to '_'
	r.Observe("loss", 0.5)
	r.Observe("loss", 0.125)

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b, "zeiot_e1_"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE zeiot_e1_cache_hits counter\nzeiot_e1_cache_hits 12\n",
		"# TYPE zeiot_e1_max_cost gauge\nzeiot_e1_max_cost 360\n",
		"zeiot_e1_loss{i=\"0\"} 0.5\n",
		"zeiot_e1_loss{i=\"1\"} 0.125\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}

	// Byte-stable across renders.
	var b2 strings.Builder
	if err := r.Snapshot().WritePrometheus(&b2, "zeiot_e1_"); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Error("two renders of one snapshot differ")
	}
}

// TestWritePrometheusCollision: two raw names that sanitize to one series
// used to emit duplicate # TYPE lines — invalid exposition format that
// scrapers reject. The writer must refuse, naming both offenders.
func TestWritePrometheusCollision(t *testing.T) {
	build := map[string]func(*Registry){
		"gauge/gauge": func(r *Registry) {
			r.Gauge("a.b", 1)
			r.Gauge("a/b", 2)
		},
		"counter/gauge": func(r *Registry) {
			r.Add("a.b", 1)
			r.Gauge("a b", 2)
		},
		"gauge/series": func(r *Registry) {
			r.Gauge("a-b", 1)
			r.Observe("a.b", 2)
		},
	}
	for name, fill := range build {
		r := NewRegistry()
		fill(r)
		var b strings.Builder
		err := r.Snapshot().WritePrometheus(&b, "p_")
		if err == nil {
			t.Errorf("%s: collision on p_a_b not rejected; output:\n%s", name, b.String())
			continue
		}
		if !strings.Contains(err.Error(), "p_a_b") {
			t.Errorf("%s: error %q does not name the colliding series", name, err)
		}
	}

	// Distinct sanitized names must keep working.
	r := NewRegistry()
	r.Gauge("a.b", 1)
	r.Gauge("a_c", 2)
	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b, "p_"); err != nil {
		t.Errorf("non-colliding names rejected: %v", err)
	}
}

// TestWritePrometheusNonFinite pins the exposition-format rendering of the
// non-finite gauge values: NaN, +Inf and -Inf are the literal spellings the
// text format defines, and they must round-trip byte-stably.
func TestWritePrometheusNonFinite(t *testing.T) {
	r := NewRegistry()
	r.Gauge("nan", math.NaN())
	r.Gauge("pinf", math.Inf(1))
	r.Gauge("ninf", math.Inf(-1))
	r.Observe("series_nan", math.NaN())

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"nan NaN\n",
		"pinf +Inf\n",
		"ninf -Inf\n",
		"series_nan{i=\"0\"} NaN\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestWithPrefix covers the run-scoped prefix wrapper the harness uses for
// runs sharing one registry: names gain the prefix, wall-time names keep
// WallTimePrefix outermost (so Deterministic still strips them), and
// Snapshot/NextRun forward to the wrapped registry.
func TestWithPrefix(t *testing.T) {
	r := NewRegistry()
	p := WithPrefix(r, "run2_")
	p.Add("hits", 3)
	p.Gauge("config_seed", 7)
	p.Observe("loss", 0.5)
	p.Gauge(WallTimePrefix+"stage_total_seconds", 1.5)

	s := r.Snapshot()
	if s.Counters["run2_hits"] != 3 || s.Gauges["run2_config_seed"] != 7 || len(s.Series["run2_loss"]) != 1 {
		t.Errorf("prefixed metrics misrouted: %+v", s)
	}
	if _, ok := s.Gauges[WallTimePrefix+"run2_stage_total_seconds"]; !ok {
		t.Errorf("wall-time gauge lost its outermost walltime_ prefix: %v", s.Gauges)
	}
	if d := s.Deterministic(); len(d.Gauges) != 1 {
		t.Errorf("Deterministic kept a prefixed wall-time gauge: %v", d.Gauges)
	}

	if snap, ok := p.(Snapshotter); !ok || snap.Snapshot() == nil {
		t.Error("prefixed recorder does not forward Snapshot")
	}
	seq, ok := p.(RunSequencer)
	if !ok {
		t.Fatal("prefixed recorder does not forward NextRun")
	}
	if r.NextRun() != 1 || seq.NextRun() != 2 || r.NextRun() != 3 {
		t.Error("run numbering not shared through the prefix wrapper")
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"plain_name":     "plain_name",
		"with space":     "with_space",
		"dots.and-dash":  "dots_and_dash",
		"5leading_digit": "_5leading_digit",
		"colon:ok":       "colon:ok",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines; run
// under -race (ci.sh does) it proves recorder sharing across parallel runs
// is safe.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Add("c", 1)
				r.Gauge("g", float64(i))
				r.Observe("s", float64(i))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8*500 {
		t.Errorf("counter c = %d, want %d", s.Counters["c"], 8*500)
	}
	if len(s.Series["s"]) != 8*500 {
		t.Errorf("series s has %d points, want %d", len(s.Series["s"]), 8*500)
	}
}

// TestTapeReplaysInOrder records a mixed call sequence onto a tape and
// requires its replay to leave a registry exactly as the same calls made
// directly would, through a prefixed view too.
func TestTapeReplaysInOrder(t *testing.T) {
	calls := func(r Recorder) {
		r.Gauge("g", 1)
		r.Observe("loss", 0.5)
		r.Add("hits", 2)
		r.Observe("loss", 0.25)
		r.Gauge("g", 2)
		r.Add("hits", -1)
		r.Observe("acc", 0.75)
	}
	var tape Tape
	calls(&tape)
	for _, prefix := range []string{"", "run2_"} {
		direct, replayed := NewRegistry(), NewRegistry()
		calls(WithPrefix(direct, prefix))
		tape.Replay(WithPrefix(replayed, prefix))
		a, _ := json.Marshal(direct.Snapshot())
		b, _ := json.Marshal(replayed.Snapshot())
		if !bytes.Equal(a, b) {
			t.Errorf("prefix %q: replayed %s, want %s", prefix, b, a)
		}
	}
	var empty Tape
	reg := NewRegistry()
	empty.Replay(reg)
	if s := reg.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Series != nil {
		t.Errorf("an empty tape replayed %+v", s)
	}
}
