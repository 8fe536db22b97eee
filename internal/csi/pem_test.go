package csi

import (
	"testing"

	"zeiot/internal/rng"
)

func TestPEMBasics(t *testing.T) {
	// Constant CSI → PEM 0; alternating large swings → PEM 1.
	flat := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	if PEM(flat, 0.1) != 0 {
		t.Fatal("flat CSI has nonzero PEM")
	}
	swing := [][]float64{{0, 0}, {1, 1}, {0, 0}}
	if PEM(swing, 0.1) != 1 {
		t.Fatal("swinging CSI PEM != 1")
	}
	if PEM(nil, 0.1) != 0 || PEM(swing[:1], 0.1) != 0 {
		t.Fatal("degenerate inputs should give 0")
	}
}

func TestPEMGrowsWithCrowd(t *testing.T) {
	cfg := DefaultCrowdConfig()
	stream := rng.New(1)
	mean := func(n int) float64 {
		sum := 0.0
		for r := 0; r < 5; r++ {
			sum += PEM(SimulateCrowdCSI(cfg, n, stream.Split("m")), cfg.Threshold)
		}
		return sum / 5
	}
	empty := mean(0)
	few := mean(3)
	many := mean(12)
	if !(empty < few && few < many) {
		t.Fatalf("PEM not increasing with crowd: %v %v %v", empty, few, many)
	}
	if empty > 0.1 {
		t.Fatalf("empty-hall PEM = %v", empty)
	}
}

func TestCrowdCounterAccuracy(t *testing.T) {
	cfg := DefaultCrowdConfig()
	stream := rng.New(2)
	counter, err := CalibrateCrowd(cfg, 10, 6, stream.Split("cal"))
	if err != nil {
		t.Fatal(err)
	}
	// Exact counting saturates (single-link PEM); the reliable target is
	// the three-level congestion class.
	correct, total := 0, 0
	for n := 0; n <= 10; n += 2 {
		for trial := 0; trial < 6; trial++ {
			if counter.CountLevel(n, 3, stream.Split("eval")) == LevelForCount(n) {
				correct++
			}
			total++
		}
	}
	frac := float64(correct) / float64(total)
	if frac < 0.75 {
		t.Fatalf("level accuracy = %.2f", frac)
	}
}

func TestLevelForCount(t *testing.T) {
	cases := map[int]CrowdLevel{0: CrowdEmpty, 1: CrowdSparse, 2: CrowdSparse, 3: CrowdBusy, 10: CrowdBusy}
	for n, want := range cases {
		if got := LevelForCount(n); got != want {
			t.Fatalf("LevelForCount(%d) = %v, want %v", n, got, want)
		}
	}
	if CrowdEmpty.String() != "empty" || CrowdBusy.String() != "busy" {
		t.Fatal("level strings wrong")
	}
}

func TestCrowdCounterCurveMonotone(t *testing.T) {
	cfg := DefaultCrowdConfig()
	counter, err := CalibrateCrowd(cfg, 8, 4, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	curve := counter.pem
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("calibration curve not monotone at %d: %v", i, curve)
		}
	}
}

func TestCalibrateCrowdValidation(t *testing.T) {
	if _, err := CalibrateCrowd(DefaultCrowdConfig(), 0, 3, rng.New(1)); err == nil {
		t.Fatal("zero people accepted")
	}
	if _, err := CalibrateCrowd(DefaultCrowdConfig(), 5, 0, rng.New(1)); err == nil {
		t.Fatal("zero runs accepted")
	}
}
