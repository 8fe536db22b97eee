package zeiot_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"zeiot"
	"zeiot/internal/obs"
)

// TestMetricsGolden pins the two observability contracts on every
// experiment that trains a CNN, at seed 1:
//
//  1. Attaching a recorder changes nothing: the Result, with Metrics and
//     Timings stripped, still matches the checked-in golden JSON byte for
//     byte.
//  2. The metrics themselves are pinned: the deterministic Prometheus export
//     (walltime_-prefixed entries stripped) matches
//     testdata/<id>_seed1.metrics.prom byte for byte. It holds the 16-digit
//     training-loss curves and per-epoch eval_acc curves, so one moved
//     weight bit fails here even when every decision-level number in the
//     JSON golden survives.
//
// The CNN experiments' exports hold their training curves. e11's holds the
// per-node traffic series and the plan and route cache counters, and e16's
// (at the crowd-smoke size of TestGoldenDefaultConfig) the per-step
// detection and live-node series and the shard counters.
//
// The goldens were recorded with TrainWorkers 1. The e1, e2, e8, e13 and e14
// rows at 2 or 4 workers compare against the same files, so a worker count
// that moves a result or reorders a recorded series fails here. The export
// records the raw worker count as config_trainworkers, the one line that may
// differ, so that sample of the expected export is rewritten to the row's
// count.
func TestMetricsGolden(t *testing.T) {
	// The exports hold loss curves computed through math.Exp, which on amd64
	// picks its FMA or non-FMA assembly at run time and the two disagree in
	// the last bit on some inputs. The files were recorded on the FMA path,
	// so on the other path only the JSON half is checked.
	probe := math.Float64bits(math.Exp(math.Float64frombits(0xc013f107746887a9)))
	fmaExp := probe == 0x3f7c014d5f19fe7d
	cases := []struct {
		id      string
		workers int
		// slow is why -short skips the row; empty keeps it.
		slow string
		// cfg overrides DefaultRunConfig() when non-nil.
		cfg *zeiot.RunConfig
	}{
		{"e1", 1, "trains the fall-detection CNNs", nil},
		{"e2", 1, "trains the lounge CNNs", nil},
		{"e8", 1, "trains the resilience CNN", nil},
		{"e11", 1, "", nil},
		{"e13", 1, "trains the HAR CNN", nil},
		{"e14", 1, "trains the intrusion CNNs", nil},
		{"e16", 1, "", &zeiot.RunConfig{Seed: 1, SampleScale: 1, Nodes: 3000}},
		{"e17", 1, "trains the intermittent CNN", nil},
		{"e18", 1, "trains the cross-modal CNNs", nil},
		{"e1", 2, "trains the fall-detection CNNs", nil},
		{"e1", 4, "trains the fall-detection CNNs", nil},
		{"e2", 2, "trains the lounge CNNs", nil},
		{"e2", 4, "trains the lounge CNNs", nil},
		{"e8", 2, "trains the resilience CNN", nil},
		{"e8", 4, "trains the resilience CNN", nil},
		{"e13", 4, "trains the HAR CNN", nil},
		{"e14", 4, "trains the intrusion CNNs", nil},
	}
	for _, tc := range cases {
		name := tc.id
		if tc.workers != 1 {
			name = fmt.Sprintf("%s_trainworkers%d", tc.id, tc.workers)
		}
		t.Run(name, func(t *testing.T) {
			if tc.slow != "" && testing.Short() {
				t.Skip(tc.slow)
			}
			stem, flags := tc.id, "-seed 1"
			if tc.cfg != nil && tc.cfg.Nodes != 0 {
				stem += fmt.Sprintf("_nodes%d", tc.cfg.Nodes)
				flags += fmt.Sprintf(" -nodes %d", tc.cfg.Nodes)
			}
			goldenJSON := filepath.Join("testdata", stem+"_seed1.golden.json")
			goldenProm := filepath.Join("testdata", stem+"_seed1.metrics.prom")
			wantJSON, err := os.ReadFile(goldenJSON)
			if err != nil {
				t.Fatal(err)
			}
			wantProm, err := os.ReadFile(goldenProm)
			if err != nil {
				t.Fatal(err)
			}
			e, err := zeiot.FindExperiment(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			cfg := zeiot.DefaultRunConfig()
			if tc.cfg != nil {
				c := *tc.cfg
				cfg = &c
			}
			cfg.TrainWorkers = tc.workers
			reg := obs.NewRegistry()
			cfg.Recorder = reg
			r, err := e.Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Metrics == nil {
				t.Fatal("Result.Metrics not attached despite a snapshotting recorder")
			}
			r.Timings = nil
			r.Metrics = nil
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode([]*zeiot.Result{r}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), wantJSON) {
				t.Errorf("%s Result with a recorder attached at %d training workers diverged from the recorder-free %s", tc.id, tc.workers, goldenJSON)
			}
			if !fmaExp {
				t.Skipf("math.Exp takes the non-FMA path on this CPU (probe bits %#x); the metric goldens hold FMA-path bits until math.Exp is made CPU-independent (ROADMAP item 1)", probe)
			}
			prefix := "zeiot_" + obs.SanitizeName(tc.id) + "_"
			recorded := prefix + "config_trainworkers 1\n"
			if n := bytes.Count(wantProm, []byte(recorded)); n != 1 {
				t.Fatalf("%s holds %d samples %q, want 1", goldenProm, n, recorded)
			}
			wantProm = bytes.Replace(wantProm, []byte(recorded), []byte(fmt.Sprintf("%sconfig_trainworkers %d\n", prefix, tc.workers)), 1)
			var prom bytes.Buffer
			if err := reg.Snapshot().Deterministic().WritePrometheus(&prom, prefix); err != nil {
				t.Fatal(err)
			}
			if prom.Len() == 0 {
				t.Fatal("deterministic Prometheus export is empty")
			}
			if !bytes.Equal(prom.Bytes(), wantProm) {
				t.Errorf("%s deterministic metrics at %d training workers diverged from %s;\nregenerate with: go run ./cmd/zeiotbench -e %s %s -trainworkers 1 -metrics-out m.prom && grep -v walltime_ m.prom > %s",
					tc.id, tc.workers, goldenProm, tc.id, flags, goldenProm)
			}
		})
	}
}
