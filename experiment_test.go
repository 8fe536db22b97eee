package zeiot

import (
	"context"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 18 {
		t.Fatalf("registry has %d experiments, want 18 (e1..e18)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"e1", "e5", "e10"} {
		if !seen[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

func TestFindExperiment(t *testing.T) {
	e, err := FindExperiment("e7")
	if err != nil || e.ID != "e7" {
		t.Fatalf("FindExperiment(e7) = %v, %v", e.ID, err)
	}
	if _, err := FindExperiment("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestResultRenderingRaggedRows is the regression test for the writeRow
// panic: rows wider than Header indexed widths[i] out of range. Wider rows
// now render their extra cells unpadded; narrower rows were always fine.
func TestResultRenderingRaggedRows(t *testing.T) {
	r := &Result{
		ID:     "ex",
		Title:  "ragged",
		Header: []string{"a", "bb", "ccc"},
		Rows: [][]string{
			{"1", "2", "3", "extra", "wider"}, // wider than Header
			{"4"},                             // narrower than Header
			{"5", "6", "7"},
		},
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"extra", "wider", "4", "7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ragged rendering lost cell %q:\n%s", want, out)
		}
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{
		ID:         "ex",
		Title:      "demo",
		PaperClaim: "claim",
		Header:     []string{"a", "bb"},
		Rows:       [][]string{{"1", "2"}, {"333", "4"}},
		Summary:    map[string]float64{"z": 1, "a": 2},
		Notes:      "note text",
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"EX: demo", "paper: claim", "333", "note: note text"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered result missing %q:\n%s", want, out)
		}
	}
}

// TestFastExperimentsRun executes the sub-second experiments end to end and
// checks their headline numbers land in the paper's shape. The heavy
// CNN-training experiments (e1, e2, e8) are exercised by the benchmark
// harness and TestHeavyExperiments below.
func TestFastExperimentsRun(t *testing.T) {
	checks := map[string]func(t *testing.T, r *Result){
		"e3": func(t *testing.T, r *Result) {
			if r.Summary["positioning_acc"] < 0.6 {
				t.Errorf("positioning accuracy %.3f", r.Summary["positioning_acc"])
			}
			if r.Summary["congestion_f1"] < 0.6 {
				t.Errorf("congestion F1 %.3f", r.Summary["congestion_f1"])
			}
		},
		"e4": func(t *testing.T, r *Result) {
			if r.Summary["exact_acc"] < 0.55 {
				t.Errorf("exact counting accuracy %.3f", r.Summary["exact_acc"])
			}
			if r.Summary["within2"] < 0.95 {
				t.Errorf("within-2 fraction %.3f", r.Summary["within2"])
			}
		},
		"e6": func(t *testing.T, r *Result) {
			if r.Summary["delivery_scheduled_load5"] < 0.95 {
				t.Errorf("scheduled delivery at low load %.3f", r.Summary["delivery_scheduled_load5"])
			}
			if r.Summary["delivery_aloha_load5"] > r.Summary["delivery_scheduled_load5"] {
				t.Error("aloha beat scheduled at low load")
			}
			if r.Summary["delivery_sched-no-dummy_load5"] > 0.5 {
				t.Errorf("no-dummy delivery at idle channel %.3f", r.Summary["delivery_sched-no-dummy_load5"])
			}
		},
		"e7": func(t *testing.T, r *Result) {
			ratio := r.Summary["wifi_over_backscatter"]
			if ratio < 1000 || ratio > 100000 {
				t.Errorf("energy ratio %v", ratio)
			}
			if r.Summary["usable_range_m"] < 8 {
				t.Errorf("usable range %v m", r.Summary["usable_range_m"])
			}
		},
		"e9": func(t *testing.T, r *Result) {
			if r.Summary["f1_200"] < 0.85 {
				t.Errorf("sociogram F1 %.3f", r.Summary["f1_200"])
			}
			if r.Summary["isolated_hits_200"] < r.Summary["isolated_total"] {
				t.Errorf("isolated found %v of %v", r.Summary["isolated_hits_200"], r.Summary["isolated_total"])
			}
		},
		"e10": func(t *testing.T, r *Result) {
			if r.Summary["direction_acc"] < 0.9 {
				t.Errorf("direction accuracy %.3f", r.Summary["direction_acc"])
			}
			if r.Summary["track_mean_err"] > 0.1 {
				t.Errorf("tracking error %.3f m", r.Summary["track_mean_err"])
			}
		},
		"e11": func(t *testing.T, r *Result) {
			if r.Summary["backscatter_speedup"] < 10 {
				t.Errorf("backscatter speedup only %.1fx", r.Summary["backscatter_speedup"])
			}
			if r.Summary["rate_backscatter"] <= r.Summary["rate_wifi"] {
				t.Error("backscatter not faster than wifi under energy budget")
			}
		},
		"e13": func(t *testing.T, r *Result) {
			if r.Summary["accuracy"] < 0.8 {
				t.Errorf("HAR accuracy %.3f", r.Summary["accuracy"])
			}
		},
		"e14": func(t *testing.T, r *Result) {
			if r.Summary["accuracy"] < 0.8 {
				t.Errorf("intrusion accuracy %.3f", r.Summary["accuracy"])
			}
			if r.Summary["recall_empty"] < 0.85 {
				t.Errorf("empty recall %.3f (false alarms)", r.Summary["recall_empty"])
			}
		},
		"e15": func(t *testing.T, r *Result) {
			if r.Summary["heart_err_bpm"] > 8 {
				t.Errorf("heart rate error %.1f bpm", r.Summary["heart_err_bpm"])
			}
			if r.Summary["breath_err_bpm"] > 3 {
				t.Errorf("breath rate error %.1f /min", r.Summary["breath_err_bpm"])
			}
		},
		"e12": func(t *testing.T, r *Result) {
			if r.Summary["motion_exact"] < 0.6 {
				t.Errorf("motion exact fraction %.2f", r.Summary["motion_exact"])
			}
			if r.Summary["crowd_level_acc"] < 0.7 {
				t.Errorf("crowd level accuracy %.2f", r.Summary["crowd_level_acc"])
			}
			if r.Summary["wordfi_acc"] < 0.8 {
				t.Errorf("word-fi accuracy %.2f", r.Summary["wordfi_acc"])
			}
			if v := r.Summary["flow_rel_err"]; v < -0.05 || v > 0.05 {
				t.Errorf("flow metering error %.3f", v)
			}
		},
	}
	for id, check := range checks {
		id, check := id, check
		t.Run(id, func(t *testing.T) {
			e, err := FindExperiment(id)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Rows) == 0 || len(r.Summary) == 0 {
				t.Fatal("empty result")
			}
			if r.Timings[StageTotal] <= 0 {
				t.Error("run recorded no total wall time")
			}
			check(t, r)
		})
	}
}

// TestE16CrowdSmall runs the crowd-scale scenario at a CI-friendly node
// count and pins the PR 7 scale contract: exactly one full structural
// build, churn repaired per shard, deterministic summaries.
func TestE16CrowdSmall(t *testing.T) {
	cfg := &RunConfig{Seed: 1, Nodes: 2000}
	r, err := RunE16Crowd(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Summary["full_rebuilds"] != 1 {
		t.Errorf("full rebuilds %v, want exactly 1 (churn must repair shards, not the world)", r.Summary["full_rebuilds"])
	}
	if r.Summary["fails"] > 0 && r.Summary["shard_rebuilds"] == 0 {
		t.Error("churn happened but no shard table was ever rebuilt")
	}
	if r.Summary["detections"] == 0 {
		t.Error("no tag detection delivered")
	}
	if dr := r.Summary["detection_rate"]; dr <= 0 || dr > 1 {
		t.Errorf("detection rate %v outside (0, 1]", dr)
	}
	if r.Summary["mean_hops_to_sink"] <= 0 {
		t.Errorf("mean hops to sink %v", r.Summary["mean_hops_to_sink"])
	}
	r2, err := RunE16Crowd(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range r.Summary {
		if r2.Summary[k] != v {
			t.Fatalf("e16 summary %q differs across identical runs: %v vs %v", k, v, r2.Summary[k])
		}
	}
	if _, err := RunE16Crowd(context.Background(), &RunConfig{Seed: 1, Nodes: 10}); err == nil {
		t.Error("sub-floor node count accepted")
	}
}

// TestHeavyExperiments trains the MicroDeep CNNs; skipped with -short.
func TestHeavyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN training experiments skipped in -short mode")
	}
	t.Run("e1", func(t *testing.T) {
		r, err := RunE1FallCommCost(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Summary["acc_optimal"] < 0.85 {
			t.Errorf("optimal accuracy %.3f", r.Summary["acc_optimal"])
		}
		if r.Summary["max_cost_fea"] >= r.Summary["max_cost_opt"] {
			t.Errorf("feasible max cost %v not below optimal %v",
				r.Summary["max_cost_fea"], r.Summary["max_cost_opt"])
		}
	})
	t.Run("e2", func(t *testing.T) {
		r, err := RunE2Lounge(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Summary["acc_standard"] < 0.9 || r.Summary["acc_microdeep"] < 0.88 {
			t.Errorf("accuracies %.3f / %.3f", r.Summary["acc_standard"], r.Summary["acc_microdeep"])
		}
		if r.Summary["peak_ratio"] >= 1 {
			t.Errorf("peak ratio %.3f not below centralized", r.Summary["peak_ratio"])
		}
	})
	t.Run("e8", func(t *testing.T) {
		r, err := RunE8Resilience(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Summary["acc_reassigned_30"] <= r.Summary["acc_asis_30"] {
			t.Errorf("reassignment did not help at 30%%: %.3f vs %.3f",
				r.Summary["acc_reassigned_30"], r.Summary["acc_asis_30"])
		}
	})
}

// TestExperimentsDeterministic re-runs a cheap experiment and requires
// identical summaries.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"e6", "e7", "e9"} {
		e, err := FindExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := &RunConfig{Seed: 42}
		a, err := e.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range a.Summary {
			if b.Summary[k] != v {
				t.Fatalf("%s: summary %q differs across identical runs: %v vs %v", id, k, v, b.Summary[k])
			}
		}
	}
}
