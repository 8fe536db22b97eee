package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyReport runs a workload n times, each as its own process with the
// usual flags, at seeds seed..seed+n-1, and prints for every metric the
// median, the quartiles (Python statistics.quantiles, n=4), the quartile
// spread relative to the median, and (max − min) / median.
func steadyReport(ctx context.Context, name string, seed uint64, seconds float64, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %v: %s", s, err, lastLine(stderr.String()))
		}
		var res resultLine
		if err := json.Unmarshal([]byte(lastLine(string(out))), &res); err != nil {
			return fmt.Errorf("seed %d: last line: %v", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: %d of %d operations failed: %s", s, res.Failed, res.Attempted, lastLine(stderr.String()))
		}
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
		logf("%s seed %d: %s", name, s, lastLine(string(out)))
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %-8s %3s %12s %12s %12s %9s %9s\n", "metric", "unit", "n", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, k := range names {
		xs := values[k]
		med := median(xs)
		q1, _, q3 := quartiles(xs)
		lo, hi := sortedCopy(xs)[0], sortedCopy(xs)[len(xs)-1]
		fmt.Printf("%-32s %-8s %3d %12.6g %12.6g %12.6g %9.4f %9.4f\n", k, units[k], len(xs), med, q1, q3, (q3-q1)/med, (hi-lo)/med)
	}
	return nil
}
