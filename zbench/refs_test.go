package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"zeiot"
)

// TestJoinResultsMatchesEncoder checks that splicing one-element arrays
// gives exactly the bytes of encoding the whole list, which is what a
// multi-experiment zeiotbench -json pass prints.
func TestJoinResultsMatchesEncoder(t *testing.T) {
	a := &zeiot.Result{ID: "e1", Title: "a", Header: []string{"x"}, Rows: [][]string{{"1"}}, Summary: map[string]float64{"k": 0.5}}
	b := &zeiot.Result{ID: "e2", Title: "b", Header: []string{"y"}, Rows: [][]string{{"2"}}, Summary: map[string]float64{"k": 1}}
	pa, err := encodeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := encodeResult(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := joinResults([][]byte{pa, pb})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode([]*zeiot.Result{a, b}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("joined:\n%s\nencoded:\n%s", got, want.Bytes())
	}
	if _, err := joinResults([][]byte{[]byte("not json")}); err == nil {
		t.Error("joinResults accepted a malformed part")
	}
}

// TestReferenceComparison checks the reference files: ref/e1.json is the
// repository golden, every file is a one-element array of the experiment it
// is named after, and changing one byte is caught.
func TestReferenceComparison(t *testing.T) {
	e := &env{root: ".."}
	if err := e.loadRefs(); err != nil {
		t.Fatal(err)
	}
	for _, id := range refExperiments {
		var rs []zeiot.Result
		if err := json.Unmarshal(e.refs[id], &rs); err != nil || len(rs) != 1 || rs[0].ID != id {
			t.Errorf("ref/%s.json: not a one-element array of %s (%v)", id, id, err)
		}
	}
	want, err := e.expected(microdeepExps, refSeed)
	if err != nil {
		t.Fatal(err)
	}
	if other, _ := e.expected(microdeepExps, refSeed+1); other != nil {
		t.Error("a non-reference seed has expected bytes")
	}
	altered := bytes.Clone(want)
	altered[len(altered)/2] ^= 1
	if bytes.Equal(altered, want) {
		t.Fatal("altering a byte left the bytes equal")
	}

	// A reference that no longer matches the golden is refused.
	dir := t.TempDir()
	for _, sub := range []string{"zbench/ref", "testdata"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range refExperiments {
		b := e.refs[id]
		if id == "e1" {
			b = bytes.Replace(b, []byte(`"e1"`), []byte(`"e0"`), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, "zbench/ref", id+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, goldenE1), e.refs["e1"], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (&env{root: dir}).loadRefs(); err == nil {
		t.Error("loadRefs accepted an e1 reference that differs from the golden")
	}
}
