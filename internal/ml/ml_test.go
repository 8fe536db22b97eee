package ml

import (
	"math"
	"testing"

	"zeiot/internal/rng"
)

// blobs generates n points per class around well-separated centroids.
func blobs(stream *rng.Stream, perClass int, spread float64, centroids ...[]float64) Dataset {
	var d Dataset
	for c, ctr := range centroids {
		for i := 0; i < perClass; i++ {
			row := make([]float64, len(ctr))
			for f, v := range ctr {
				row[f] = v + stream.NormMeanStd(0, spread)
			}
			d.X = append(d.X, row)
			d.Y = append(d.Y, c)
		}
	}
	return d
}

func TestKNNSeparableBlobs(t *testing.T) {
	s := rng.New(1)
	d := blobs(s, 60, 0.3, []float64{0, 0}, []float64{4, 0}, []float64{0, 4})
	train, test := trainTestSplit(d, 0.3, s)
	m, err := KNN{K: 3}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	cm := evaluateClassifier(m, test, 3)
	if cm.Accuracy() < 0.95 {
		t.Fatalf("knn accuracy = %.3f", cm.Accuracy())
	}
}

func TestKNNExactNeighbor(t *testing.T) {
	d := Dataset{X: [][]float64{{0, 0}, {10, 10}}, Y: []int{0, 1}}
	m, err := KNN{K: 1}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{1, 1}) != 0 || m.Predict([]float64{9, 9}) != 1 {
		t.Fatal("1-NN wrong on trivial data")
	}
}

func TestKNNValidation(t *testing.T) {
	if _, err := (KNN{K: 0}).Fit(Dataset{X: [][]float64{{1}}, Y: []int{0}}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := (KNN{K: 1}).Fit(Dataset{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestGaussianNBSeparableBlobs(t *testing.T) {
	s := rng.New(2)
	d := blobs(s, 80, 0.5, []float64{0, 0, 0}, []float64{5, 0, 1}, []float64{0, 5, -1})
	train, test := trainTestSplit(d, 0.25, s)
	m, err := GaussianNB{}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	cm := evaluateClassifier(m, test, 3)
	if cm.Accuracy() < 0.95 {
		t.Fatalf("gnb accuracy = %.3f", cm.Accuracy())
	}
}

func TestGaussianNBUsesVariance(t *testing.T) {
	// Same means, different variances: NB must still separate.
	s := rng.New(3)
	var d Dataset
	for i := 0; i < 300; i++ {
		d.X = append(d.X, []float64{s.NormMeanStd(0, 0.1)})
		d.Y = append(d.Y, 0)
		d.X = append(d.X, []float64{s.NormMeanStd(0, 3)})
		d.Y = append(d.Y, 1)
	}
	m, err := GaussianNB{}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{0.01}) != 0 {
		t.Fatal("tight sample classified as broad class")
	}
	if m.Predict([]float64{5}) != 1 {
		t.Fatal("far sample classified as tight class")
	}
}

func TestSoftmaxSeparableBlobs(t *testing.T) {
	s := rng.New(4)
	d := blobs(s, 60, 0.4, []float64{0, 0}, []float64{3, 3})
	train, test := trainTestSplit(d, 0.3, s)
	std := FitStandardizer(train)
	m, err := Softmax{LR: 0.5, Epochs: 300}.Fit(std.Apply(train))
	if err != nil {
		t.Fatal(err)
	}
	cm := evaluateClassifier(m, std.Apply(test), 2)
	if cm.Accuracy() < 0.95 {
		t.Fatalf("softmax accuracy = %.3f", cm.Accuracy())
	}
}

func TestConfusionMatrixMetrics(t *testing.T) {
	cm := NewConfusionMatrix(2)
	// 8 TP0, 2 FN0 (pred 1), 1 FP0 (true 1 pred 0), 9 TP1.
	for i := 0; i < 8; i++ {
		cm.Add(0, 0)
	}
	for i := 0; i < 2; i++ {
		cm.Add(0, 1)
	}
	cm.Add(1, 0)
	for i := 0; i < 9; i++ {
		cm.Add(1, 1)
	}
	if cm.Total() != 20 {
		t.Fatalf("Total = %d", cm.Total())
	}
	if math.Abs(cm.Accuracy()-0.85) > 1e-12 {
		t.Fatalf("Accuracy = %v", cm.Accuracy())
	}
	p, r := cm.PrecisionRecall(0)
	if math.Abs(p-8.0/9) > 1e-12 || math.Abs(r-0.8) > 1e-12 {
		t.Fatalf("P/R = %v/%v", p, r)
	}
	f1 := cm.F1(0)
	want := 2 * (8.0 / 9) * 0.8 / (8.0/9 + 0.8)
	if math.Abs(f1-want) > 1e-12 {
		t.Fatalf("F1 = %v, want %v", f1, want)
	}
	macro := cm.MacroF1()
	if macro <= 0 || macro > 1 {
		t.Fatalf("MacroF1 = %v", macro)
	}
}

func TestEmptyClassF1IsZero(t *testing.T) {
	cm := NewConfusionMatrix(3)
	cm.Add(0, 0)
	if cm.F1(2) != 0 {
		t.Fatal("empty class F1 != 0")
	}
}

func TestStandardizer(t *testing.T) {
	d := Dataset{X: [][]float64{{1, 100}, {3, 300}, {5, 200}}, Y: []int{0, 0, 0}}
	std := FitStandardizer(d)
	out := std.Apply(d)
	for f := 0; f < 2; f++ {
		mean, varSum := 0.0, 0.0
		for _, row := range out.X {
			mean += row[f]
		}
		mean /= 3
		for _, row := range out.X {
			varSum += (row[f] - mean) * (row[f] - mean)
		}
		if math.Abs(mean) > 1e-9 || math.Abs(varSum/3-1) > 1e-9 {
			t.Fatalf("feature %d not standardized: mean %v var %v", f, mean, varSum/3)
		}
	}
	// Constant features must not divide by zero.
	dc := Dataset{X: [][]float64{{7}, {7}}, Y: []int{0, 0}}
	stdc := FitStandardizer(dc)
	outc := stdc.Apply(dc)
	if math.IsNaN(outc.X[0][0]) || math.IsInf(outc.X[0][0], 0) {
		t.Fatal("constant feature produced NaN/Inf")
	}
}

func TestCrossValidate(t *testing.T) {
	s := rng.New(5)
	d := blobs(s, 50, 0.3, []float64{0, 0}, []float64{5, 5})
	cm, err := CrossValidate(KNN{K: 3}, d, 5, s.Split("cv"))
	if err != nil {
		t.Fatal(err)
	}
	// Every example is tested exactly once.
	if cm.Total() != d.Len() {
		t.Fatalf("cv total = %d, want %d", cm.Total(), d.Len())
	}
	if cm.Accuracy() < 0.95 {
		t.Fatalf("cv accuracy = %.3f", cm.Accuracy())
	}
	if _, err := CrossValidate(KNN{K: 3}, d, 1, s); err == nil {
		t.Fatal("k=1 folds accepted")
	}
}

func TestTrainTestSplitDisjointAndComplete(t *testing.T) {
	s := rng.New(6)
	d := blobs(s, 25, 0.5, []float64{0}, []float64{1})
	train, test := trainTestSplit(d, 0.2, s)
	if train.Len()+test.Len() != d.Len() {
		t.Fatalf("split sizes %d + %d != %d", train.Len(), test.Len(), d.Len())
	}
	if test.Len() != 10 {
		t.Fatalf("test size = %d", test.Len())
	}
}

func TestSubset(t *testing.T) {
	d := Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []int{0, 1, 2}}
	sub := d.Subset([]int{2, 0})
	if sub.Len() != 2 || sub.X[0][0] != 3 || sub.Y[1] != 0 {
		t.Fatalf("subset = %+v", sub)
	}
}

func TestNumClasses(t *testing.T) {
	d := Dataset{X: [][]float64{{1}, {2}}, Y: []int{0, 4}}
	if d.NumClasses() != 5 {
		t.Fatalf("NumClasses = %d", d.NumClasses())
	}
}

// evaluateClassifier runs m over test and returns the confusion matrix.
func evaluateClassifier(m Classifier, test Dataset, numClasses int) *ConfusionMatrix {
	cm := NewConfusionMatrix(numClasses)
	for i, x := range test.X {
		cm.Add(test.Y[i], m.Predict(x))
	}
	return cm
}

// trainTestSplit partitions d into a train and test set with the given test
// fraction, shuffled by stream.
func trainTestSplit(d Dataset, testFrac float64, stream *rng.Stream) (train, test Dataset) {
	perm := stream.Perm(d.Len())
	nTest := int(float64(d.Len()) * testFrac)
	if nTest < 1 {
		nTest = 1
	}
	return d.Subset(perm[nTest:]), d.Subset(perm[:nTest])
}
