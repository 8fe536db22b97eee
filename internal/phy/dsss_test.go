package phy

import (
	"testing"

	"zeiot/internal/rng"
)

func TestCodebookGeometry(t *testing.T) {
	cb := NewCodebook()
	if d := minDistance(cb); d < 13 {
		t.Fatalf("codebook min distance = %d, want >= 13", d)
	}
	// Chips are ±1 only.
	for s := 0; s < Symbols; s++ {
		for c := 0; c < ChipsPerSymbol; c++ {
			if v := cb.chips[s][c]; v != 1 && v != -1 {
				t.Fatalf("chip (%d,%d) = %v", s, c, v)
			}
		}
	}
}

func TestCodebookDeterministic(t *testing.T) {
	a := NewCodebook()
	b := NewCodebook()
	for s := 0; s < Symbols; s++ {
		if a.chips[s] != b.chips[s] {
			t.Fatalf("codebook not deterministic at symbol %d", s)
		}
	}
}

func TestNoiselessRoundTrip(t *testing.T) {
	cb := NewCodebook()
	stream := rng.New(1)
	symbols := make([]int, 500)
	for i := range symbols {
		symbols[i] = stream.Intn(Symbols)
	}
	tx, err := cb.Spread(symbols)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx) != len(symbols)*ChipsPerSymbol {
		t.Fatalf("waveform length = %d", len(tx))
	}
	rx, err := cb.Despread(tx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range symbols {
		if rx[i] != symbols[i] {
			t.Fatalf("symbol %d decoded as %d, sent %d", i, rx[i], symbols[i])
		}
	}
}

func TestSpreadValidation(t *testing.T) {
	cb := NewCodebook()
	if _, err := cb.Spread([]int{16}); err == nil {
		t.Fatal("out-of-range symbol accepted")
	}
	if _, err := cb.Despread(make([]float64, 33)); err == nil {
		t.Fatal("ragged waveform accepted")
	}
}

func TestSERMonotoneInNoise(t *testing.T) {
	cb := NewCodebook()
	prev := -1.0
	for _, noise := range []float64{1.0, 2.0, 3.0, 4.0} {
		ser, err := SymbolErrorRate(cb, Channel{NoiseStd: noise}, 3000, rng.New(uint64(noise*10)))
		if err != nil {
			t.Fatal(err)
		}
		if ser < prev-0.02 {
			t.Fatalf("SER not monotone: %v at noise %v after %v", ser, noise, prev)
		}
		prev = ser
	}
	// Moderate noise (chip SNR ≈ −3.5 dB): theory for a distance-13
	// codebook puts SER at a few percent; the unspread baseline is
	// unusable here (see TestSpreadingGainUnderNoise).
	ser, err := SymbolErrorRate(cb, Channel{NoiseStd: 1.5}, 3000, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if ser > 0.08 {
		t.Fatalf("SER at noise 1.5 = %v, want a few percent", ser)
	}
}

func TestSpreadingGainUnderNoise(t *testing.T) {
	// At per-chip SNR where raw bits fail badly, the correlation receiver
	// still decodes: the paper's "communication distance is long due to
	// spread gain".
	cb := NewCodebook()
	ch := Channel{NoiseStd: 2.0}
	spread, err := SymbolErrorRate(cb, ch, 4000, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := UnspreadErrorRate(ch, 4000, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if raw < 0.5 {
		t.Fatalf("raw link unexpectedly healthy: %v", raw)
	}
	if spread > 0.25 {
		t.Fatalf("spread link SER = %v at the same chip SNR", spread)
	}
	if spread > raw/2 {
		t.Fatalf("spreading gain too small: spread %v vs raw %v", spread, raw)
	}
}

func TestJammingRejection(t *testing.T) {
	// A strong CW interferer destroys the unspread link but barely moves
	// the despread one (the correlation averages the tone out).
	cb := NewCodebook()
	ch := Channel{
		NoiseStd:      0.3,
		InterfererAmp: 2.0,
		InterfererHz:  153e3, // off the chip rate, non-harmonic
		ChipRateHz:    2e6,
	}
	spread, err := SymbolErrorRate(cb, ch, 3000, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := UnspreadErrorRate(ch, 3000, rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	if raw < 0.3 {
		t.Fatalf("jammer did not hurt the raw link: %v", raw)
	}
	if spread > raw/3 {
		t.Fatalf("spreading rejected too little jamming: spread %v vs raw %v", spread, raw)
	}
}

func TestErrorRateValidation(t *testing.T) {
	cb := NewCodebook()
	if _, err := SymbolErrorRate(cb, Channel{}, 0, rng.New(1)); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, err := UnspreadErrorRate(Channel{}, -1, rng.New(1)); err == nil {
		t.Fatal("negative trials accepted")
	}
}

// minDistance returns the smallest pairwise chip distance of the codebook,
// the margin the geometry test holds it to.
func minDistance(cb *Codebook) int {
	minD := ChipsPerSymbol
	for i := 0; i < Symbols; i++ {
		for j := i + 1; j < Symbols; j++ {
			if d := hamming(cb.chips[i], cb.chips[j]); d < minD {
				minD = d
			}
		}
	}
	return minD
}
