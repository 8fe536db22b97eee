package zeiot_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"zeiot"
)

// TestGoldenDefaultConfig is the in-process half of the ci.sh golden smoke:
// running an experiment under DefaultRunConfig() (what a nil config means)
// must reproduce the checked-in golden JSON byte for byte, after stripping
// Timings — the one nondeterministic Result field, which cmd/zeiotbench
// also omits unless -timings is given. Any rng-stream or formatting drift
// anywhere in the stack fails this even if no unit test covers it.
func TestGoldenDefaultConfig(t *testing.T) {
	cases := []struct {
		id     string
		golden string
		// slow is why -short skips the row; empty keeps it.
		slow string
	}{
		{"e1", "e1_seed1.golden.json", "trains CNNs"},
		{"e2", "e2_seed1.golden.json", "trains CNNs"},
		{"e3", "e3_seed1.golden.json", "simulates train RSSI sweeps"},
		{"e4", "e4_seed1.golden.json", "simulates room RSSI sweeps"},
		{"e5", "e5_seed1.golden.json", "extracts CSI features"},
		{"e7", "e7_seed1.golden.json", ""},
		{"e8", "e8_seed1.golden.json", "trains CNNs"},
		{"e12", "e12_seed1.golden.json", ""},
		{"e13", "e13_seed1.golden.json", "trains CNNs"},
		{"e14", "e14_seed1.golden.json", "trains CNNs"},
		{"e17", "e17_seed1.golden.json", "trains CNNs"},
		{"e18", "e18_seed1.golden.json", "trains CNNs"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
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
			r, err := e.Run(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			r.Timings = nil
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode([]*zeiot.Result{r}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s under DefaultRunConfig diverged from %s;\nregenerate with: go run ./cmd/zeiotbench -e %s -seed 1 -json > testdata/%s",
					tc.id, tc.golden, tc.id, tc.golden)
			}
		})
	}
}
