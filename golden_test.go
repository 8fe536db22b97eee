package zeiot_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zeiot"
)

// TestGoldenDefaultConfig is the in-process half of the ci.sh golden smoke:
// running an experiment under DefaultRunConfig() (what a nil config means),
// or under the row's own config, must reproduce the checked-in golden JSON
// byte for byte, after stripping Timings — the one nondeterministic Result
// field, which cmd/zeiotbench also omits unless -timings is given. Any
// rng-stream or formatting drift anywhere in the stack fails this even if no
// unit test covers it.
func TestGoldenDefaultConfig(t *testing.T) {
	cases := []struct {
		id     string
		golden string
		// slow is why -short skips the row; empty keeps it.
		slow string
		// cfg overrides DefaultRunConfig() when non-nil.
		cfg *zeiot.RunConfig
	}{
		{"e1", "e1_seed1.golden.json", "trains CNNs", nil},
		{"e2", "e2_seed1.golden.json", "trains CNNs", nil},
		{"e3", "e3_seed1.golden.json", "simulates train RSSI sweeps", nil},
		{"e4", "e4_seed1.golden.json", "simulates room RSSI sweeps", nil},
		{"e5", "e5_seed1.golden.json", "extracts CSI features", nil},
		{"e6", "e6_seed1.golden.json", "", nil},
		{"e7", "e7_seed1.golden.json", "", nil},
		{"e8", "e8_seed1.golden.json", "trains CNNs", nil},
		{"e9", "e9_seed1.golden.json", "", nil},
		{"e10", "e10_seed1.golden.json", "", nil},
		{"e11", "e11_seed1.golden.json", "", nil},
		{"e12", "e12_seed1.golden.json", "", nil},
		{"e13", "e13_seed1.golden.json", "trains CNNs", nil},
		{"e14", "e14_seed1.golden.json", "trains CNNs", nil},
		{"e15", "e15_seed1.golden.json", "", nil},
		// The crowd field at its default 100,000 nodes (100 shards) pins the
		// crowd-scale route-cache, shard and overlay counters; at 3,000
		// nodes (four shards) -short still pins the multi-shard hops.
		{"e16", "e16_seed1.golden.json", "routes a 100,000-node field", nil},
		{"e16", "e16_nodes3000_seed1.golden.json", "", &zeiot.RunConfig{Seed: 1, Nodes: 3000}},
		{"e17", "e17_seed1.golden.json", "trains CNNs", nil},
		{"e18", "e18_seed1.golden.json", "trains CNNs", nil},
		// The int8 rows: -quant scores the trained CNNs through
		// QuantizedNetwork after the float rows.
		{"e1", "e1_quant_seed1.golden.json", "trains CNNs", &zeiot.RunConfig{Seed: 1, Quantize: true}},
		{"e2", "e2_quant_seed1.golden.json", "trains CNNs", &zeiot.RunConfig{Seed: 1, Quantize: true}},
		{"e13", "e13_quant_seed1.golden.json", "trains CNNs", &zeiot.RunConfig{Seed: 1, Quantize: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(strings.TrimSuffix(tc.golden, "_seed1.golden.json"), func(t *testing.T) {
			if tc.slow != "" && testing.Short() {
				t.Skip(tc.slow)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			e, err := zeiot.FindExperiment(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run(context.Background(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cliJSON(t, r), want) {
				flags := "-seed 1"
				if tc.cfg != nil && tc.cfg.Nodes != 0 {
					flags += fmt.Sprintf(" -nodes %d", tc.cfg.Nodes)
				}
				if tc.cfg != nil && tc.cfg.Quantize {
					flags += " -quant=true"
				}
				t.Errorf("%s diverged from %s;\nregenerate with: go run ./cmd/zeiotbench -e %s %s -json > testdata/%s",
					tc.id, tc.golden, tc.id, flags, tc.golden)
			}
		})
	}
}

// cliJSON renders r as `zeiotbench -json` prints it, with Timings, the one
// nondeterministic field, stripped.
func cliJSON(t *testing.T, r *zeiot.Result) []byte {
	t.Helper()
	r.Timings = nil
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode([]*zeiot.Result{r}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
