package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// wallTime matches the registry line's trailing run time, the one part of
// the output that changes from run to run.
var wallTime = regexp.MustCompile(`(?m) \(in [^)]*\)$`)

// TestOutputGolden runs the design loop and diffs its output, run time
// stripped, against testdata/output.golden.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := wallTime.ReplaceAll(out.Bytes(), nil)
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from testdata/output.golden:\n--- got ---\n%s--- want ---\n%s\nregenerate with: go run ./examples/designer | sed -E 's/ \\(in [^)]*\\)$//' > examples/designer/testdata/output.golden",
			got, want)
	}
}
