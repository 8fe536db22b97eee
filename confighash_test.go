package zeiot_test

import (
	"strings"
	"testing"

	"zeiot"
	"zeiot/internal/obs"
)

func mustKey(t *testing.T, exp string, cfg *zeiot.RunConfig) string {
	t.Helper()
	k, err := zeiot.ConfigKey(exp, cfg)
	if err != nil {
		t.Fatalf("ConfigKey(%s): %v", exp, err)
	}
	return k
}

// TestConfigKeySemanticIdentity pins every normalization rule of the
// canonical form: semantically identical configs must share a key, because
// the daemon's result cache serves one config the other's bytes.
func TestConfigKeySemanticIdentity(t *testing.T) {
	base := mustKey(t, "e1", &zeiot.RunConfig{Seed: 1, SampleScale: 1})

	cases := []struct {
		name string
		cfg  *zeiot.RunConfig
	}{
		{"nil config is DefaultRunConfig", nil},
		{"SampleScale 0 normalizes to 1", &zeiot.RunConfig{Seed: 1}},
		{"Harvest.PowerScale 0 normalizes to 1", &zeiot.RunConfig{Seed: 1, Harvest: zeiot.HarvestConfig{PowerScale: 1}}},
		{"Harvest.Profile empty normalizes to mixed", &zeiot.RunConfig{Seed: 1, Harvest: zeiot.HarvestConfig{Profile: "mixed"}}},
		{"Recorder is excluded", &zeiot.RunConfig{Seed: 1, Recorder: obs.NewRegistry()}},
	}
	for _, tc := range cases {
		if got := mustKey(t, "e1", tc.cfg); got != base {
			t.Errorf("%s: key %s != base %s", tc.name, got, base)
		}
	}
}

// TestConfigKeyModalitiesAreASet checks that modality order and duplicates
// never split the cache: beginRun normalizes Modalities to a sorted set, so
// the key hashes the same set.
func TestConfigKeyModalitiesAreASet(t *testing.T) {
	a := mustKey(t, "e18", &zeiot.RunConfig{Seed: 1, Modalities: []string{"har", "gait"}})
	b := mustKey(t, "e18", &zeiot.RunConfig{Seed: 1, Modalities: []string{"gait", "har", "gait"}})
	c := mustKey(t, "e18", &zeiot.RunConfig{Seed: 1, Modalities: []string{"gait", "har"}})
	if a != c || b != c {
		t.Errorf("modality order/duplicates split the key: %s / %s / %s", a, b, c)
	}
	d := mustKey(t, "e18", &zeiot.RunConfig{Seed: 1, Modalities: []string{"gait"}})
	if d == c {
		t.Error("different modality sets share a key")
	}
}

// TestConfigKeyDiscriminates checks that every semantically meaningful knob
// moves the key — a collision here would serve one run another run's bytes.
func TestConfigKeyDiscriminates(t *testing.T) {
	base := mustKey(t, "e1", &zeiot.RunConfig{Seed: 1})
	lossy := zeiot.DefaultLossConfig()
	lossy.Enabled = true
	variants := map[string]*zeiot.RunConfig{
		"seed":       {Seed: 2},
		"workers":    {Seed: 1, TrainWorkers: 4},
		"scale":      {Seed: 1, SampleScale: 0.5},
		"repeats":    {Seed: 1, Repeats: 2},
		"nodes":      {Seed: 1, Nodes: 3000},
		"quantize":   {Seed: 1, Quantize: true},
		"loss":       {Seed: 1, Loss: lossy},
		"harvest":    {Seed: 1, Harvest: zeiot.HarvestConfig{PowerScale: 2}},
		"profile":    {Seed: 1, Harvest: zeiot.HarvestConfig{Profile: "solar"}},
		"checkpoint": {Seed: 1, Checkpoint: zeiot.CheckpointConfig{Path: "f.ck", KillAfterBatches: 5}},
	}
	seen := map[string]string{base: "base"}
	for name, cfg := range variants {
		k := mustKey(t, "e1", cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}
	if got := mustKey(t, "e7", &zeiot.RunConfig{Seed: 1}); got == base {
		t.Error("experiment id does not move the key")
	}
}

// TestConfigKeyRejectsInvalid: invalid configs and unknown experiments have
// no meaningful cache key.
func TestConfigKeyRejectsInvalid(t *testing.T) {
	if _, err := zeiot.ConfigKey("e99", &zeiot.RunConfig{Seed: 1}); err == nil {
		t.Error("ConfigKey accepted an unknown experiment")
	}
	if _, err := zeiot.ConfigKey("e1", &zeiot.RunConfig{Seed: 1, TrainWorkers: -1}); err == nil {
		t.Error("ConfigKey accepted an invalid config")
	}
}

// TestCanonicalConfigStable pins the canonical text form itself: it is the
// cache-key preimage, so accidental reformatting would silently invalidate
// every cached result. Bump configKeyVersion when changing it on purpose.
func TestCanonicalConfigStable(t *testing.T) {
	got := zeiot.CanonicalConfig("e1", &zeiot.RunConfig{Seed: 1})
	want := strings.Join([]string{
		"version=v2",
		"experiment=e1",
		"seed=1",
		"trainworkers=0",
		"loss.enabled=false",
		"loss.dropprob=0",
		"loss.burst=false",
		"loss.maxretries=0",
		"samplescale=1",
		"repeats=0",
		"nodes=0",
		"quantize=false",
		"harvest.powerscale=1",
		"harvest.profile=mixed",
		`checkpoint.path=""`,
		"checkpoint.killafter=0",
		"checkpoint.resume=false",
		"modalities=",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("canonical form drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
