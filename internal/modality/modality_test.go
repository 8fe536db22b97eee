package modality

import (
	"fmt"
	"testing"

	"zeiot/internal/ml"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

// TestSpecInvariants checks every registered source's contract: the spec
// name matches its registry key, the shape is positive-dimensional, and the
// class list is consistent.
func TestSpecInvariants(t *testing.T) {
	names := Names()
	if len(names) < 9 {
		t.Fatalf("registry has %d modalities, want >= 9 (8 plain + 1 fused)", len(names))
	}
	for _, name := range names {
		src, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		spec := src.Spec()
		if spec.Name != name {
			t.Errorf("%q: Spec().Name = %q, want the registry key", name, spec.Name)
		}
		if len(spec.Shape) == 0 {
			t.Errorf("%q: empty shape", name)
		}
		for _, d := range spec.Shape {
			if d <= 0 {
				t.Errorf("%q: non-positive shape dim in %v", name, spec.Shape)
			}
		}
		if spec.Classes < 2 {
			t.Errorf("%q: %d classes, want >= 2", name, spec.Classes)
		}
		if len(spec.ClassNames) != spec.Classes {
			t.Errorf("%q: %d class names for %d classes", name, len(spec.ClassNames), spec.Classes)
		}
		if spec.NumElements() <= 0 {
			t.Errorf("%q: NumElements() = %d", name, spec.NumElements())
		}
	}
}

// TestGenerateDeterministicAndSpecConformant generates a small batch from
// every registered source twice with identical stream state and checks (a)
// byte-identity, (b) every sample matches the spec's shape, (c) the batch is
// class-balanced.
func TestGenerateDeterministicAndSpecConformant(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			src, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			spec := src.Spec()
			n := 2 * spec.Classes
			a, err := src.Generate(n, rng.New(7).Split(name))
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			b, err := src.Generate(n, rng.New(7).Split(name))
			if err != nil {
				t.Fatalf("Generate (repeat): %v", err)
			}
			if len(a) != n || len(b) != n {
				t.Fatalf("got %d and %d samples, want %d", len(a), len(b), n)
			}
			counts := make([]int, spec.Classes)
			for i := range a {
				if a[i].Label != b[i].Label {
					t.Fatalf("sample %d: labels %d vs %d across identical streams", i, a[i].Label, b[i].Label)
				}
				if !tensor.Equal(a[i].Input, b[i].Input, 0) {
					t.Fatalf("sample %d: data differs across identical streams", i)
				}
				want := spec.NumElements()
				if got := len(a[i].Input.Data()); got != want {
					t.Fatalf("sample %d: %d elements, spec says %d", i, got, want)
				}
				if a[i].Label < 0 || a[i].Label >= spec.Classes {
					t.Fatalf("sample %d: label %d outside [0, %d)", i, a[i].Label, spec.Classes)
				}
				counts[a[i].Label]++
			}
			for c, got := range counts {
				if got != 2 {
					t.Errorf("class %d: %d samples, want 2 (balanced round-robin)", c, got)
				}
			}
		})
	}
}

// TestFuseAlignment checks the fused timeline property the package
// documents: each fused sample is the concatenation of both part sources'
// renderings of the same event class, reproducible from the sample stream's
// "a"/"b" sub-streams.
func TestFuseAlignment(t *testing.T) {
	ga, vi := NewGait(), NewVitals()
	f, err := Fuse(ga, vi)
	if err != nil {
		t.Fatal(err)
	}
	spec := f.Spec()
	if spec.Name != "gait+vitals" {
		t.Errorf("fused name %q, want gait+vitals", spec.Name)
	}
	wantLen := ga.Spec().NumElements() + vi.Spec().NumElements()
	if spec.NumElements() != wantLen {
		t.Errorf("fused NumElements %d, want %d", spec.NumElements(), wantLen)
	}

	const n = 6
	samples, err := f.Generate(n, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// Replay the documented derivation: sample i (pre-shuffle) has class
	// i % classes and draws from stream.Split("s-i"); its halves come from
	// that stream's "a" and "b" splits. The shuffle permutes sample order
	// only, so match each replayed sample against the generated set by
	// content.
	replayRoot := rng.New(11)
	aLen := ga.Spec().NumElements()
	for i := 0; i < n; i++ {
		class := i % spec.Classes
		s := replayRoot.Split(fmt.Sprintf("s-%d", i))
		ta, err := ga.GenerateClass(class, s.Split("a"))
		if err != nil {
			t.Fatal(err)
		}
		tb, err := vi.GenerateClass(class, s.Split("b"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, sample := range samples {
			if sample.Label != class {
				continue
			}
			data := sample.Input.Data()
			if equalSlices(data[:aLen], ta.Data()) && equalSlices(data[aLen:], tb.Data()) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("replayed fused sample %d (class %d) not found in generated set", i, class)
		}
	}
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFuseClassMismatch checks Fuse rejects sources whose class sets cannot
// share a timeline.
func TestFuseClassMismatch(t *testing.T) {
	if _, err := Fuse(NewGait(), NewHAR()); err == nil {
		t.Fatal("Fuse(gait [2 classes], har [5 classes]) succeeded, want error")
	}
}

// TestNewUnknown checks the registry error path names the unknown key.
func TestNewUnknown(t *testing.T) {
	if _, err := New("sonar"); err == nil {
		t.Fatal("New(sonar) succeeded, want error")
	}
}

// TestFromToDatasetRoundTrip checks the ml.Dataset bridge keeps every row
// and label and copies the data.
func TestFromToDatasetRoundTrip(t *testing.T) {
	d := ml.Dataset{
		X: [][]float64{{1, 2, 3}, {4, 5, 6}},
		Y: []int{0, 1},
	}
	samples := FromDataset(d)
	if len(samples) != 2 {
		t.Fatalf("FromDataset: %d samples, want 2", len(samples))
	}
	for i, s := range samples {
		if s.Label != d.Y[i] || !equalSlices(s.Input.Data(), d.X[i]) {
			t.Fatalf("row %d: got %v/%d want %v/%d", i, s.Input.Data(), s.Label, d.X[i], d.Y[i])
		}
	}
	samples[0].Input.Data()[0] = 99
	if d.X[0][0] != 1 {
		t.Error("FromDataset aliases the dataset rows; want a copy")
	}
}

// TestRegistryConstructorsIndependent checks New returns fresh adapters:
// mutating one's config must not leak into the next.
func TestRegistryConstructorsIndependent(t *testing.T) {
	a, err := New("gait")
	if err != nil {
		t.Fatal(err)
	}
	a.(*Gait).Cfg.Streams = 3
	b, err := New("gait")
	if err != nil {
		t.Fatal(err)
	}
	if b.(*Gait).Cfg.Streams == 3 {
		t.Fatal("New(gait) shares config state across calls")
	}
}
