package ml

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"zeiot/internal/rng"
)

// refSoftmaxFit is Softmax.Fit one sample at a time: logits, softmax, then
// the sample's gradient added into gb and gw before the next sample. It is
// the reference the blocked Fit must match bit for bit.
func refSoftmaxFit(s Softmax, d Dataset) *softmaxModel {
	lr := s.LR
	if lr <= 0 {
		lr = 0.1
	}
	epochs := s.Epochs
	if epochs <= 0 {
		epochs = 200
	}
	nc := d.NumClasses()
	nf := len(d.X[0])
	m := &softmaxModel{w: make([][]float64, nc), b: make([]float64, nc), nc: nc}
	stream := rng.New(s.Seed)
	for c := range m.w {
		m.w[c] = make([]float64, nf)
		for f := range m.w[c] {
			m.w[c][f] = stream.NormMeanStd(0, 0.01)
		}
	}
	probs := make([]float64, nc)
	gw := make([][]float64, nc)
	gb := make([]float64, nc)
	for c := range gw {
		gw[c] = make([]float64, nf)
	}
	inv := 1.0 / float64(d.Len())
	for e := 0; e < epochs; e++ {
		for c := range gw {
			gb[c] = 0
			for f := range gw[c] {
				gw[c][f] = 0
			}
		}
		for i, row := range d.X {
			m.logits(row, probs)
			softmaxInPlace(probs)
			for c := 0; c < nc; c++ {
				g := probs[c]
				if c == d.Y[i] {
					g--
				}
				gb[c] += g
				for f, v := range row {
					gw[c][f] += g * v
				}
			}
		}
		for c := 0; c < nc; c++ {
			m.b[c] -= lr * gb[c] * inv
			for f := range m.w[c] {
				m.w[c][f] -= lr * (gw[c][f]*inv + s.L2*m.w[c][f])
			}
		}
	}
	return m
}

// refKNNPredict is kNN's Predict by sorting every candidate by distance
// then label and voting over the first k with a map. It is the reference
// for NaN-free inputs, where that sort order is well defined.
func refKNNPredict(k int, data Dataset, x []float64) int {
	type cand struct {
		dist float64
		y    int
	}
	cands := make([]cand, data.Len())
	for i, row := range data.X {
		cands[i] = cand{dist: sqDist(row, x), y: data.Y[i]}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].y < cands[j].y
	})
	if k > len(cands) {
		k = len(cands)
	}
	votes := make(map[int]int)
	for _, c := range cands[:k] {
		votes[c.y]++
	}
	best, bestV := -1, -1
	for y, v := range votes {
		if v > bestV || (v == bestV && y < best) {
			best, bestV = y, v
		}
	}
	return best
}

// randomDataset draws n rows of nf standard-normal features with labels in
// [0, nc), the last row labelled nc-1 so NumClasses is nc.
func randomDataset(s *rng.Stream, n, nf, nc int) Dataset {
	var d Dataset
	for i := 0; i < n; i++ {
		row := make([]float64, nf)
		for f := range row {
			row[f] = s.NormMeanStd(0, 1)
		}
		d.X = append(d.X, row)
		d.Y = append(d.Y, s.Intn(nc))
	}
	d.Y[n-1] = nc - 1
	return d
}

func TestSoftmaxFitMatchesReference(t *testing.T) {
	s := rng.New(11)
	for _, nc := range []int{1, 2, 3, 5, 7, 9} {
		for _, n := range []int{1, 3, 4, 9, 14, 31} {
			for _, nf := range []int{1, 5, 8, 13} {
				for _, l2 := range []float64{0, 1e-3} {
					d := randomDataset(s, n, nf, nc)
					cfg := Softmax{LR: 0.3, Epochs: 7, L2: l2, Seed: uint64(n*nf + nc)}
					clf, err := cfg.Fit(d)
					if err != nil {
						t.Fatal(err)
					}
					got, want := clf.(*softmaxModel), refSoftmaxFit(cfg, d)
					name := fmt.Sprintf("nc=%d n=%d nf=%d l2=%g", nc, n, nf, l2)
					for c := range want.w {
						if math.Float64bits(got.b[c]) != math.Float64bits(want.b[c]) {
							t.Fatalf("%s: b[%d] = %v, reference %v", name, c, got.b[c], want.b[c])
						}
						for f := range want.w[c] {
							if math.Float64bits(got.w[c][f]) != math.Float64bits(want.w[c][f]) {
								t.Fatalf("%s: w[%d][%d] = %v, reference %v", name, c, f, got.w[c][f], want.w[c][f])
							}
						}
					}
				}
			}
		}
	}
}

func TestKNNPredictMatchesSortReference(t *testing.T) {
	s := rng.New(12)
	for _, n := range []int{1, 2, 5, 8, 11, 30} {
		for _, nf := range []int{1, 3, 4} {
			// Features on a coarse integer grid, with duplicated rows, make
			// many equal distances; few labels make many vote ties.
			var d Dataset
			for i := 0; i < n; i++ {
				if i > 0 && s.Intn(3) == 0 {
					j := s.Intn(i)
					d.X = append(d.X, d.X[j])
					d.Y = append(d.Y, s.Intn(3))
					continue
				}
				row := make([]float64, nf)
				for f := range row {
					row[f] = float64(s.Intn(3))
				}
				d.X = append(d.X, row)
				d.Y = append(d.Y, s.Intn(3))
			}
			for _, k := range []int{1, 2, 3, 5, n, n + 2} {
				clf, err := KNN{K: k}.Fit(d)
				if err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 20; q++ {
					x := make([]float64, nf)
					for f := range x {
						x[f] = float64(s.Intn(4)) - 0.5*float64(s.Intn(2))
					}
					if got, want := clf.Predict(x), refKNNPredict(k, d, x); got != want {
						t.Fatalf("n=%d nf=%d k=%d x=%v: Predict = %d, reference %d", n, nf, k, x, got, want)
					}
				}
			}
		}
	}
}

func TestKNNLowestClassWinsVoteTies(t *testing.T) {
	d := Dataset{
		X: [][]float64{{1}, {1}, {2}, {2}, {3}},
		Y: []int{3, 3, 1, 1, 0},
	}
	for _, tc := range []struct{ k, want int }{
		{1, 3}, // nearest alone
		{2, 3}, // both nearest rows share class 3
		{4, 1}, // 3 and 1 have two votes each: the lower class wins
		{5, 1},
	} {
		clf, err := KNN{K: tc.k}.Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := clf.Predict([]float64{0}); got != tc.want {
			t.Errorf("k=%d: Predict = %d, want %d", tc.k, got, tc.want)
		}
	}
}

// TestKNNRanksNaNLast pins the order of NaN distances: after every number,
// +Inf included, and among themselves by label, wherever the NaN rows sit
// in the training set.
func TestKNNRanksNaNLast(t *testing.T) {
	nan := math.NaN()
	rows := []struct {
		x float64
		y int
	}{
		{nan, 5}, {nan, 3}, {nan, 4}, {nan, 3}, {1e200, 2}, {0.5, 1},
	}
	s := rng.New(13)
	for trial := 0; trial < 20; trial++ {
		var d Dataset
		for _, i := range s.Perm(len(rows)) {
			d.X = append(d.X, []float64{rows[i].x})
			d.Y = append(d.Y, rows[i].y)
		}
		for _, tc := range []struct{ k, want int }{
			{1, 1}, // 0.5 before the NaN rows
			{2, 1}, // then 1e200, whose distance is +Inf: a 1-1 tie
			{4, 3}, // then the two NaN rows labelled 3
			{6, 3},
		} {
			clf, err := KNN{K: tc.k}.Fit(d)
			if err != nil {
				t.Fatal(err)
			}
			if got := clf.Predict([]float64{0}); got != tc.want {
				t.Fatalf("order %v, k=%d: Predict = %d, want %d", d.Y, tc.k, got, tc.want)
			}
		}
	}
}

func TestFitRejectsRaggedRows(t *testing.T) {
	d := Dataset{X: [][]float64{{1, 2}, {3}}, Y: []int{0, 1}}
	for _, tr := range []Trainer{KNN{K: 1}, Softmax{}} {
		if _, err := tr.Fit(d); err == nil {
			t.Errorf("%T accepted rows of 2 and 1 features", tr)
		}
	}
}
