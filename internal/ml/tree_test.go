package ml

import (
	"testing"

	"zeiot/internal/rng"
)

func TestTreeSeparableBlobs(t *testing.T) {
	s := rng.New(1)
	d := blobs(s, 60, 0.3, []float64{0, 0}, []float64{4, 0}, []float64{0, 4})
	train, test := trainTestSplit(d, 0.3, s)
	m, err := Tree{}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	cm := evaluateClassifier(m, test, 3)
	if cm.Accuracy() < 0.93 {
		t.Fatalf("tree accuracy = %.3f", cm.Accuracy())
	}
}

func TestTreeXORNeedsDepth(t *testing.T) {
	// XOR is not linearly separable; a depth-1 stump must fail while a
	// deeper tree solves it.
	s := rng.New(2)
	var d Dataset
	for i := 0; i < 400; i++ {
		x := float64(s.Intn(2))
		y := float64(s.Intn(2))
		d.X = append(d.X, []float64{x + 0.1*s.Norm(), y + 0.1*s.Norm()})
		label := 0
		if (x > 0.5) != (y > 0.5) {
			label = 1
		}
		d.Y = append(d.Y, label)
	}
	train, test := trainTestSplit(d, 0.25, s)
	stump, err := Tree{MaxDepth: 1}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := Tree{MaxDepth: 4}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	stumpAcc := evaluateClassifier(stump, test, 2).Accuracy()
	deepAcc := evaluateClassifier(deep, test, 2).Accuracy()
	if deepAcc < 0.95 {
		t.Fatalf("deep tree accuracy = %.3f on XOR", deepAcc)
	}
	if stumpAcc > 0.75 {
		t.Fatalf("depth-1 stump suspiciously good on XOR: %.3f", stumpAcc)
	}
}

func TestTreePureLeafShortCircuit(t *testing.T) {
	d := Dataset{X: [][]float64{{1}, {2}, {3}}, Y: []int{1, 1, 1}}
	m, err := Tree{}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict([]float64{99}) != 1 {
		t.Fatal("pure dataset misclassified")
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := (Tree{}).Fit(Dataset{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
	if _, err := (Forest{}).Fit(Dataset{}); err == nil {
		t.Fatal("empty dataset accepted by forest")
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	s := rng.New(3)
	d := blobs(s, 80, 0.9, []float64{0, 0, 0, 0}, []float64{2, 0, 1, 0}, []float64{0, 2, 0, 1})
	train, test := trainTestSplit(d, 0.3, s)
	tree, err := Tree{MaxDepth: 8}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := Forest{Trees: 40, MaxDepth: 8, Seed: 7}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	treeAcc := evaluateClassifier(tree, test, 3).Accuracy()
	forestAcc := evaluateClassifier(forest, test, 3).Accuracy()
	if forestAcc+0.03 < treeAcc {
		t.Fatalf("forest %.3f clearly worse than single tree %.3f", forestAcc, treeAcc)
	}
	if forestAcc < 0.7 {
		t.Fatalf("forest accuracy = %.3f", forestAcc)
	}
}

func TestForestDeterministicBySeed(t *testing.T) {
	s := rng.New(4)
	d := blobs(s, 40, 0.6, []float64{0, 0}, []float64{3, 3})
	a, err := Forest{Trees: 10, Seed: 5}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Forest{Trees: 10, Seed: 5}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range d.X {
		if a.Predict(x) != b.Predict(x) {
			t.Fatalf("forest not deterministic at sample %d", i)
		}
	}
}
