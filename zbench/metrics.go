package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports every one; README.md gives their meaning per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run (--trace 1). A workload that does
// not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"stage.dataset_s", "s", "lower"},
	{"stage.train_s", "s", "lower"},
	{"stage.eval_s", "s", "lower"},
	{"stage.charge_s", "s", "lower"},
	{"exp.e1_s", "s", "lower"},
	{"exp.e2_s", "s", "lower"},
	{"exp.e8_s", "s", "lower"},
	{"exp.e3_s", "s", "lower"},
	{"exp.e4_s", "s", "lower"},
	{"exp.e5_s", "s", "lower"},
	{"cnn.fit_s", "s", "lower"},
	{"cnn.fit_samples_per_s", "1/s", "higher"},
	{"cnn.fit_allocs_per_sample", "count", "lower"},
	{"cnn.evaluate_s", "s", "lower"},
	{"microdeep.build_s", "s", "lower"},
	{"microdeep.fit_s", "s", "lower"},
	{"microdeep.cost_per_sample_s", "s", "lower"},
	{"microdeep.charge_s", "s", "lower"},
	{"microdeep.forward_s", "s", "lower"},
	{"microdeep.plan_cache_hit_ratio", "fraction", "higher"},
	{"wsn.topology_s", "s", "lower"},
	{"wsn.route_ns", "ns", "lower"},
	{"wsn.route_cache_hit_ratio", "fraction", "higher"},
	{"wsn.rebuilds", "count", "lower"},
	{"modality.gait.samples_per_s", "1/s", "higher"},
	{"modality.lounge.samples_per_s", "1/s", "higher"},
	{"csi.snapshot_us", "us", "lower"},
	{"csi.features_us", "us", "lower"},
	{"csi.features_allocs", "count", "lower"},
	{"ml.cv_s.knn", "s", "lower"},
	{"ml.cv_s.gaussian-nb", "s", "lower"},
	{"ml.cv_s.softmax", "s", "lower"},
	{"ml.allocs", "count", "lower"},
	{"congestion.calibrate_s", "s", "lower"},
	{"congestion.traincar_eval_s", "s", "lower"},
	{"congestion.train_room_s", "s", "lower"},
	{"congestion.evaluate_room_s", "s", "lower"},
	{"zeiotd.submit_ms", "ms", "lower"},
	{"zeiotd.fetch_ms", "ms", "lower"},
	{"zeiotd.polls_per_miss", "count", "lower"},
	{"zeiotd.cache_hit_ratio", "fraction", "higher"},
	{"zeiotd.rejected", "count", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"jobs.run_ms", "ms", "lower"},
	{"jobs.queue_depth_max", "count", "lower"},
	{"confighash.key_us", "us", "lower"},
	{"hit_p50_ms", "ms", "lower"},
	{"hit_p99_ms", "ms", "lower"},
	{"miss_p50_ms", "ms", "lower"},
	{"miss_p95_ms", "ms", "lower"},
	{"goodput_per_s", "1/s", "higher"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"obs.overhead_frac", "fraction", "lower"},
	{"counters.route_cache_hits", "count", "higher"},
	{"counters.route_cache_misses", "count", "lower"},
	{"counters.plan_cache_hits", "count", "higher"},
	{"counters.plan_cache_misses", "count", "lower"},
	{"trace.coverage", "fraction", "higher"},
	{"error_rate", "fraction", "lower"},
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// fail counts one failed operation and says why on standard error.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	logf("failure: "+format, args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the final output line with every metric of defs. With
// requireAll a missing or non-finite value is an error; otherwise it reads
// 0 (a layer the workload does not exercise).
func (o *outcome) result(defs []metricDef, requireAll bool) ([]byte, error) {
	if o.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			if requireAll {
				return nil, fmt.Errorf("metric %s not measured", d.name)
			}
			v = 0
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: m})
}
