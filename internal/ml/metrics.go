package ml

import (
	"fmt"
	"math"

	"zeiot/internal/rng"
)

// ConfusionMatrix accumulates per-class prediction counts.
type ConfusionMatrix struct {
	// Counts[true][pred].
	Counts [][]int
}

// NewConfusionMatrix returns a zeroed n-class confusion matrix.
func NewConfusionMatrix(n int) *ConfusionMatrix {
	c := &ConfusionMatrix{Counts: make([][]int, n)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, n)
	}
	return c
}

// Add records one prediction.
func (c *ConfusionMatrix) Add(truth, pred int) { c.Counts[truth][pred]++ }

// Total returns the number of recorded predictions.
func (c *ConfusionMatrix) Total() int {
	t := 0
	for _, row := range c.Counts {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Accuracy returns the fraction of correct predictions.
func (c *ConfusionMatrix) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	correct := 0
	for i := range c.Counts {
		correct += c.Counts[i][i]
	}
	return float64(correct) / float64(total)
}

// PrecisionRecall returns the precision and recall of class k.
func (c *ConfusionMatrix) PrecisionRecall(k int) (precision, recall float64) {
	tp := c.Counts[k][k]
	fp, fn := 0, 0
	for i := range c.Counts {
		if i == k {
			continue
		}
		fp += c.Counts[i][k]
		fn += c.Counts[k][i]
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

// F1 returns the F-measure of class k.
func (c *ConfusionMatrix) F1(k int) float64 {
	p, r := c.PrecisionRecall(k)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MacroF1 returns the unweighted mean F-measure over all classes — the
// "F-measure" the paper reports for three-level congestion.
func (c *ConfusionMatrix) MacroF1() float64 {
	if len(c.Counts) == 0 {
		return 0
	}
	sum := 0.0
	for k := range c.Counts {
		sum += c.F1(k)
	}
	return sum / float64(len(c.Counts))
}

// Standardizer rescales features to zero mean and unit variance using
// statistics from the training split only.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes feature statistics over d.
func FitStandardizer(d Dataset) *Standardizer {
	if d.Len() == 0 {
		return &Standardizer{}
	}
	nf := len(d.X[0])
	s := &Standardizer{Mean: make([]float64, nf), Std: make([]float64, nf)}
	for _, row := range d.X {
		for f, v := range row {
			s.Mean[f] += v
		}
	}
	for f := range s.Mean {
		s.Mean[f] /= float64(d.Len())
	}
	for _, row := range d.X {
		for f, v := range row {
			dv := v - s.Mean[f]
			s.Std[f] += dv * dv
		}
	}
	for f := range s.Std {
		s.Std[f] = s.Std[f] / float64(d.Len())
		if s.Std[f] < 1e-12 {
			s.Std[f] = 1
		} else {
			s.Std[f] = math.Sqrt(s.Std[f])
		}
	}
	return s
}

// Apply returns a standardized copy of d.
func (s *Standardizer) Apply(d Dataset) Dataset {
	out := Dataset{X: make([][]float64, d.Len()), Y: append([]int(nil), d.Y...)}
	for i, row := range d.X {
		r := make([]float64, len(row))
		for f, v := range row {
			r[f] = (v - s.Mean[f]) / s.Std[f]
		}
		out.X[i] = r
	}
	return out
}

// CrossValidate runs k-fold cross-validation of trainer on d with a
// deterministic shuffle from stream, returning the pooled confusion matrix.
func CrossValidate(trainer Trainer, d Dataset, k int, stream *rng.Stream) (*ConfusionMatrix, error) {
	if k < 2 || k > d.Len() {
		return nil, fmt.Errorf("ml: bad fold count %d for %d examples", k, d.Len())
	}
	nc := d.NumClasses()
	cm := NewConfusionMatrix(nc)
	perm := stream.Perm(d.Len())
	for fold := 0; fold < k; fold++ {
		var trainIdx, testIdx []int
		for i, j := range perm {
			if i%k == fold {
				testIdx = append(testIdx, j)
			} else {
				trainIdx = append(trainIdx, j)
			}
		}
		train, test := d.Subset(trainIdx), d.Subset(testIdx)
		std := FitStandardizer(train)
		model, err := trainer.Fit(std.Apply(train))
		if err != nil {
			return nil, fmt.Errorf("ml: fold %d: %w", fold, err)
		}
		stdTest := std.Apply(test)
		for i, x := range stdTest.X {
			cm.Add(stdTest.Y[i], model.Predict(x))
		}
	}
	return cm, nil
}
