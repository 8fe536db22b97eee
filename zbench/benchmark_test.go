package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables of this program in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, w.name, w.unit, w.better)
			}
			if bounded != (m.Bound != nil) || (m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bad bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

func TestResultLineHasEveryMetric(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	if _, err := o.result(endToEnd, true); err == nil {
		t.Error("an end-to-end result with no metrics was accepted")
	}
	line, err := o.result(perLayer, false)
	if err != nil {
		t.Fatal(err)
	}
	var res resultLine
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Errorf("result = %+v", res)
	}
	o.fail("test failure")
	if line, _ := o.result(perLayer, false); json.Unmarshal(line, &res) != nil || res.Correct || res.Failed != 1 {
		t.Errorf("a failed operation left the result correct: %s", line)
	}
}
