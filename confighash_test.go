package zeiot_test

import (
	"math"
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

// FuzzConfigKey holds ConfigKey to its preimage: two valid configs share a
// key exactly when their CanonicalConfig texts are equal. Each input
// decodes into a config and a second one built from it field by field,
// either drawn afresh or rewritten in a spelling the canonical form
// normalizes: SampleScale and Harvest.PowerScale 0 for 1, -0 for +0,
// Harvest.Profile "" for "mixed", Modalities reordered and duplicated, a
// Recorder added. When every field was rewritten, the two must validate
// alike and share a key.
func FuzzConfigKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 2, 0, 4, 0, 1, 0, 3, 0, 2, 3, 1, 7, 5, 2, 0, 1})
	f.Add([]byte{2, 1, 3, 0, 0, 1, 1, 3, 1, 1, 0, 2, 0, 0, 4, 1, 8, 0, 0, 2, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &configPairGen{data: data, same: true}
		bools := []bool{false, true}
		expA, expB := pair(g, []string{"e1", "e7", "e18"})
		a, b := &zeiot.RunConfig{}, &zeiot.RunConfig{}
		a.Seed, b.Seed = pair(g, []uint64{0, 1, 2})
		a.TrainWorkers, b.TrainWorkers = pair(g, []int{0, 1, 4})
		a.SampleScale, b.SampleScale = g.float([]float64{0, 1, 0.5, 2}, true)
		a.Repeats, b.Repeats = pair(g, []int{0, 1, 2})
		a.Nodes, b.Nodes = pair(g, []int{0, 3000})
		a.Quantize, b.Quantize = pair(g, bools)
		a.Loss.Enabled, b.Loss.Enabled = pair(g, bools)
		a.Loss.DropProb, b.Loss.DropProb = g.float([]float64{0, 0.1, 1}, false)
		a.Loss.Burst, b.Loss.Burst = pair(g, bools)
		a.Loss.MaxRetries, b.Loss.MaxRetries = pair(g, []int{0, 3})
		a.Harvest.PowerScale, b.Harvest.PowerScale = g.float([]float64{0, 1, 3}, true)
		a.Harvest.Profile, b.Harvest.Profile = pair(g, []string{"", "mixed", "rf", "solar"})
		if alias, ok := map[string]string{"": "mixed", "mixed": ""}[b.Harvest.Profile]; ok && g.next()%2 == 1 {
			b.Harvest.Profile = alias
		}
		a.Checkpoint.Path, b.Checkpoint.Path = pair(g, []string{"", "a.ck"})
		a.Checkpoint.KillAfterBatches, b.Checkpoint.KillAfterBatches = pair(g, []int{0, 5})
		a.Checkpoint.Resume, b.Checkpoint.Resume = pair(g, bools)
		a.Modalities, b.Modalities = g.modalities([]string{"gait", "har", "rfid", "gait+vitals"})
		if g.next()%2 == 1 {
			b.Recorder = obs.NewRegistry()
		}

		ka, errA := zeiot.ConfigKey(expA, a)
		kb, errB := zeiot.ConfigKey(expB, b)
		if g.same && (errA == nil) != (errB == nil) {
			t.Fatalf("equivalent configs validate differently: %v / %v\n%+v\n%+v", errA, errB, a, b)
		}
		if errA != nil || errB != nil {
			return
		}
		ca, cb := zeiot.CanonicalConfig(expA, a), zeiot.CanonicalConfig(expB, b)
		if (ca == cb) != (ka == kb) {
			t.Fatalf("canonical texts equal %v but keys equal %v:\n%s\n%s", ca == cb, ka == kb, ca, cb)
		}
		if g.same && ka != kb {
			t.Fatalf("equivalent configs have different keys:\n%s\n%s", ca, cb)
		}
	})
}

// configPairGen draws FuzzConfigKey's config pairs from fuzz bytes (0 once
// they run out). same stays true while every second value is a rewrite of
// the first.
type configPairGen struct {
	data []byte
	same bool
}

func (g *configPairGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	v := g.data[0]
	g.data = g.data[1:]
	return int(v)
}

// fresh reports whether the second value of the next field is drawn afresh
// rather than rewritten from the first.
func (g *configPairGen) fresh() bool {
	if g.next()%2 == 0 {
		return false
	}
	g.same = false
	return true
}

// pair draws a value from vals, and either the same value again or a fresh
// draw.
func pair[T any](g *configPairGen, vals []T) (T, T) {
	a := vals[g.next()%len(vals)]
	if g.fresh() {
		return a, vals[g.next()%len(vals)]
	}
	return a, a
}

// float draws a value, negated zero included; a rewrite spells a zero as
// +0 or -0 and, where zeroIsOne, a zero or a one as any of 0, -0 and 1.
func (g *configPairGen) float(vals []float64, zeroIsOne bool) (float64, float64) {
	negZero := math.Copysign(0, -1)
	a := vals[g.next()%len(vals)]
	if g.next()%2 == 1 && a == 0 {
		a = negZero
	}
	if g.fresh() {
		return a, vals[g.next()%len(vals)]
	}
	spellings := []float64{a}
	switch {
	case zeroIsOne && (a == 0 || a == 1):
		spellings = []float64{0, negZero, 1}
	case a == 0:
		spellings = []float64{0, negZero}
	}
	return a, spellings[g.next()%len(spellings)]
}

// modalities draws a list of up to four names, duplicates allowed; a
// rewrite is the same set in another order with other duplicates.
func (g *configPairGen) modalities(names []string) ([]string, []string) {
	draw := func() []string {
		var out []string
		for n := g.next() % 5; n > 0; n-- {
			out = append(out, names[g.next()%len(names)])
		}
		return out
	}
	a := draw()
	if g.fresh() {
		return a, draw()
	}
	b := append([]string(nil), a...)
	for i := len(b) - 1; i > 0; i-- {
		j := g.next() % (i + 1)
		b[i], b[j] = b[j], b[i]
	}
	if len(a) > 0 {
		for n := g.next() % 3; n > 0; n-- {
			b = append(b, a[g.next()%len(a)])
		}
	}
	return a, b
}
