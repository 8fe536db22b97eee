package zeiot

import (
	"context"
	"strings"
	"testing"
)

func TestRunConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     RunConfig
		wantErr string // substring; "" means valid
	}{
		{"zero value", RunConfig{}, ""},
		{"default", *DefaultRunConfig(), ""},
		{"negative workers", RunConfig{TrainWorkers: -1}, "TrainWorkers"},
		{"negative scale", RunConfig{SampleScale: -0.5}, "SampleScale"},
		{"negative repeats", RunConfig{Repeats: -2}, "Repeats"},
		{"quantize", RunConfig{Quantize: true}, ""},
		{"drop prob above one", RunConfig{Loss: LossConfig{Enabled: true, DropProb: 1.5}}, "DropProb"},
		{"drop prob negative", RunConfig{Loss: LossConfig{Enabled: true, DropProb: -0.1}}, "DropProb"},
		{"negative retries", RunConfig{Loss: LossConfig{Enabled: true, MaxRetries: -1}}, "MaxRetries"},
		// The historical CLI bug: -lossretries/-lossburst silently ignored
		// when -loss 0. Now an explicit error.
		{"retries without enable", RunConfig{Loss: LossConfig{MaxRetries: 3}}, "Loss.Enabled is false"},
		{"burst without enable", RunConfig{Loss: LossConfig{Burst: true}}, "Loss.Enabled is false"},
		{"drop prob without enable", RunConfig{Loss: LossConfig{DropProb: 0.1}}, "Loss.Enabled is false"},
		{"enabled loss", RunConfig{Loss: LossConfig{Enabled: true, DropProb: 0.1, MaxRetries: 3}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestScaled(t *testing.T) {
	// Identity at the default scale for every base the experiments use.
	c := &RunConfig{SampleScale: 1}
	for _, base := range []int{1, 5, 8, 12, 25, 32, 60, 150, 400, 700, 1200, 2000, 4000} {
		if got := c.scaled(base); got != base {
			t.Errorf("scaled(%d) at scale 1 = %d", base, got)
		}
	}
	half := &RunConfig{SampleScale: 0.5}
	if got := half.scaled(700); got != 350 {
		t.Errorf("scaled(700) at 0.5 = %d, want 350", got)
	}
	// Rounding, not truncation.
	if got := half.scaled(25); got != 13 {
		t.Errorf("scaled(25) at 0.5 = %d, want 13", got)
	}
	// Floor at 1 so no experiment degenerates to an empty dataset.
	tiny := &RunConfig{SampleScale: 0.001}
	if got := tiny.scaled(5); got != 1 {
		t.Errorf("scaled(5) at 0.001 = %d, want 1", got)
	}
}

func TestRepeatsOr(t *testing.T) {
	if got := (&RunConfig{}).repeatsOr(3); got != 3 {
		t.Errorf("repeatsOr(3) with no override = %d", got)
	}
	if got := (&RunConfig{Repeats: 5}).repeatsOr(3); got != 5 {
		t.Errorf("repeatsOr(3) with Repeats 5 = %d", got)
	}
}

func TestBeginRun(t *testing.T) {
	// The caller's config is cloned, never mutated.
	cfg := &RunConfig{Seed: 9}
	h, err := beginRun(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.cfg == cfg {
		t.Error("beginRun did not clone the caller's config")
	}
	if h.cfg.SampleScale != 1 {
		t.Errorf("normalized SampleScale = %g, want 1", h.cfg.SampleScale)
	}
	if cfg.SampleScale != 0 {
		t.Error("beginRun mutated the caller's config")
	}

	// Invalid configs are rejected before any work happens.
	if _, err := beginRun(context.Background(), &RunConfig{TrainWorkers: -1}); err == nil {
		t.Error("beginRun accepted an invalid config")
	}

	// A canceled context stops the run at entry.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := beginRun(ctx, nil); err == nil {
		t.Error("beginRun ignored a canceled context")
	}
}

func TestCanceledContextStopsExperiments(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"e7", "e9", "e13"} {
		e, err := FindExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(ctx, nil); err == nil {
			t.Errorf("%s: run with canceled context succeeded", id)
		}
	}
}

func TestTimingsStagesOrder(t *testing.T) {
	tm := Timings{StageTotal: 1, "zzz": 1, StageEval: 1, StageDataset: 1, "aaa": 1}
	got := tm.Stages()
	want := []string{StageDataset, StageEval, StageTotal, "aaa", "zzz"}
	if len(got) != len(want) {
		t.Fatalf("Stages() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Stages() = %v, want %v", got, want)
		}
	}
}
