package intrusion

import (
	"math"
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/motion"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
)

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig()
	m := Generate(cfg, ClassHuman, rng.New(1))
	sh := m.Shape()
	if sh[0] != 1 || sh[1] != cfg.RangeBins || sh[2] != cfg.Frames {
		t.Fatalf("map shape = %v", sh)
	}
}

func TestTargetsCarryMoreEnergyThanEmpty(t *testing.T) {
	cfg := DefaultConfig()
	s := rng.New(2)
	energy := func(c Class) float64 {
		total := 0.0
		for i := 0; i < 10; i++ {
			m := Generate(cfg, c, s.Split("e"))
			for _, v := range m.Data() {
				total += v * v
			}
		}
		return total
	}
	empty := energy(ClassEmpty)
	human := energy(ClassHuman)
	animal := energy(ClassAnimal)
	if human <= empty || animal <= empty {
		t.Fatalf("target energy not above clutter: empty %v human %v animal %v", empty, human, animal)
	}
}

func TestGaitModulationDiffers(t *testing.T) {
	// The time-series of total reflected energy should oscillate faster
	// for animals (trot) than humans (steps): compare dominant lag of the
	// energy autocorrelation.
	cfg := DefaultConfig()
	cfg.Frames = 64
	cfg.FrameHz = 16
	cfg.Noise = 0.02
	meanPeriod := func(c Class, seed uint64) float64 {
		sum, n := 0.0, 0
		for trial := 0; trial < 8; trial++ {
			m := Generate(cfg, c, rng.New(seed+uint64(trial)))
			series := make([]float64, cfg.Frames)
			for f := 0; f < cfg.Frames; f++ {
				for r := 0; r < cfg.RangeBins; r++ {
					series[f] += m.At(0, r, f) * m.At(0, r, f)
				}
			}
			if p := motion.DominantPeriod(series, cfg.FrameHz); p > 0 {
				sum += p
				n++
			}
		}
		if n == 0 {
			t.Fatalf("class %v: no periodicity detected", c)
		}
		return sum / float64(n)
	}
	humanPeriod := meanPeriod(ClassHuman, 100)
	animalPeriod := meanPeriod(ClassAnimal, 200)
	if animalPeriod >= humanPeriod {
		t.Fatalf("animal gait period %v not shorter than human %v", animalPeriod, humanPeriod)
	}
	if math.Abs(humanPeriod-0.5) > 0.25 {
		t.Fatalf("human gait period %v far from ~0.5 s", humanPeriod)
	}
}

func TestDatasetBalancedAndShuffled(t *testing.T) {
	cfg := DefaultConfig()
	samples := GenerateDataset(cfg, 6, rng.New(3))
	if len(samples) != 6*NumClasses() {
		t.Fatalf("dataset size = %d", len(samples))
	}
	counts := make([]int, NumClasses())
	firstRun := 0
	for i, s := range samples {
		counts[s.Label]++
		if i > 0 && samples[i].Label == samples[i-1].Label && firstRun == i-1 {
			firstRun = i
		}
	}
	for c, n := range counts {
		if n != 6 {
			t.Fatalf("class %d has %d samples", c, n)
		}
	}
}

func TestDetectorLearns(t *testing.T) {
	cfg := DefaultConfig()
	stream := rng.New(4)
	samples := GenerateDataset(cfg, 40, stream.Split("data"))
	cut := len(samples) * 3 / 4
	train, test := samples[:cut], samples[cut:]
	net := NewDetector(cfg, stream.Split("net"))
	net.FitParallel(train, 8, 16, 1, cnn.NewSGD(0.02, 0.9), stream.Split("fit"))
	correct := 0
	hits := make([]int, NumClasses())
	totals := make([]int, NumClasses())
	for i, got := range net.PredictAll(test) {
		label := test[i].Label
		totals[label]++
		if got == label {
			correct++
			hits[label]++
		}
	}
	acc := float64(correct) / float64(len(test))
	recall := float64(hits[ClassEmpty]) / float64(totals[ClassEmpty])
	if acc < 0.85 {
		t.Fatalf("intrusion accuracy = %.3f", acc)
	}
	// Empty scenes must be near-perfectly rejected (false alarms are the
	// deployment killer for intrusion systems).
	if recall < 0.9 {
		t.Fatalf("empty recall = %.3f", recall)
	}
}

func TestClassStrings(t *testing.T) {
	if ClassEmpty.String() != "empty" || ClassHuman.String() != "human" || ClassAnimal.String() != "animal" {
		t.Fatal("class strings wrong")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	cfg := DefaultConfig()
	a := Generate(cfg, ClassAnimal, rng.New(9))
	b := Generate(cfg, ClassAnimal, rng.New(9))
	if !tensor.Equal(a, b, 0) {
		t.Fatal("same seed produced different maps")
	}
}
