package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Kind: kindStage, Start: 0, End: 10},
		{ID: 1, Parent: 0, Kind: kindLayer, Start: 1, End: 4},
		{ID: 2, Parent: 0, Kind: kindLayer, Start: 3, End: 5},  // overlaps span 1: union [1, 5]
		{ID: 3, Parent: 0, Kind: kindLayer, Start: 7, End: 12}, // clipped to the parent at 10
		{ID: 4, Parent: 3, Kind: kindLayer, Start: 8, End: 9},
	}
	self := selfTimes(spans)
	want := []float64{10 - 4 - 3, 3, 2, 4, 1}
	for i := range want {
		if !near(self[i], want[i]) {
			t.Errorf("self time of span %d = %g, want %g", i, self[i], want[i])
		}
	}
	// Layers' self time 3+2+4+1 = 10 over a stage of 10.
	if c := coverage(spans, self, kindStage); !near(c, 1) {
		t.Errorf("coverage = %g, want 1", c)
	}
}

func TestCoverageExposesUnaccountedTime(t *testing.T) {
	tr := newTracer("test")
	t0 := tr.t0
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	stage := tr.add(-1, kindStage, "eval", at(0), at(4))
	tr.add(stage, kindLayer, "ml.cv.knn", at(1), at(2))
	self := selfTimes(tr.spans)
	if !near(self[0], 3) {
		t.Errorf("stage self time = %g, want 3", self[0])
	}
	if c := coverage(tr.spans, self, kindStage); !near(c, 0.25) {
		t.Errorf("coverage = %g, want 0.25", c)
	}
	secs, calls := selfByName(tr.spans, self, kindLayer)
	if !near(secs["ml.cv.knn"], 1) || calls["ml.cv.knn"] != 1 {
		t.Errorf("layer totals = %v %v", secs, calls)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer("run/seed1")
	tr.within(kindRun, "w", func() {
		tr.within(kindStage, "train", func() {
			tr.within(kindLayer, "cnn.fit", func() {})
		})
	})
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(tr.spans))
	}
	for i, wantParent := range []int{-1, 0, 1} {
		s := tr.spans[i]
		if s.Parent != wantParent || s.Run != "run/seed1" || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d", i, s, wantParent)
		}
	}
}
