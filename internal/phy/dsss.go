// Package phy implements an IEEE 802.15.4-style direct-sequence
// spread-spectrum baseband: 4-bit symbols spread to 32-chip sequences, an
// AWGN/interference channel, and a maximum-correlation receiver.
//
// §IV.A picks ZigBee backscatter exactly because "IEEE 802.15.4 realizes
// 250 kbps communication speed using direct sequence spread spectrum,
// communication distance is long due to spread gain"; this package makes
// that spreading gain measurable at chip level: the correlation receiver
// decodes far below the per-chip SNR an unspread link needs, and rejects
// narrowband interferers that flatten an unspread signal.
//
// The codebook is 16 deterministic pseudo-random 32-chip sequences with a
// guaranteed pairwise-distance floor (the standard's exact chip map is a
// rotated/conjugated m-sequence family with the same geometry).
package phy

import (
	"fmt"
	"math"

	"zeiot/internal/rng"
)

// Symbols is the alphabet size (4 bits/symbol) and ChipsPerSymbol the
// spreading factor, both per IEEE 802.15.4.
const (
	Symbols        = 16
	ChipsPerSymbol = 32
)

// Codebook holds one chip sequence per symbol, chips in ±1.
type Codebook struct {
	chips [Symbols][ChipsPerSymbol]float64
}

// NewCodebook generates the deterministic codebook: random ±1 sequences
// re-drawn until every pair differs in at least minDist chip positions.
func NewCodebook() *Codebook {
	const minDist = 13
	stream := rng.New(0x802154)
	cb := &Codebook{}
	for s := 0; s < Symbols; {
		var cand [ChipsPerSymbol]float64
		for c := range cand {
			if stream.Bool(0.5) {
				cand[c] = 1
			} else {
				cand[c] = -1
			}
		}
		ok := true
		for prev := 0; prev < s; prev++ {
			if hamming(cb.chips[prev], cand) < minDist {
				ok = false
				break
			}
		}
		if ok {
			cb.chips[s] = cand
			s++
		}
	}
	return cb
}

func hamming(a, b [ChipsPerSymbol]float64) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}

// Spread maps symbols (values 0..15) to a chip waveform.
func (cb *Codebook) Spread(symbols []int) ([]float64, error) {
	out := make([]float64, 0, len(symbols)*ChipsPerSymbol)
	for i, s := range symbols {
		if s < 0 || s >= Symbols {
			return nil, fmt.Errorf("phy: symbol %d at %d out of range", s, i)
		}
		out = append(out, cb.chips[s][:]...)
	}
	return out, nil
}

// Despread decodes a chip waveform by maximum correlation per symbol slot.
// Waveform length must be a multiple of ChipsPerSymbol.
func (cb *Codebook) Despread(waveform []float64) ([]int, error) {
	if len(waveform)%ChipsPerSymbol != 0 {
		return nil, fmt.Errorf("phy: waveform length %d not a multiple of %d", len(waveform), ChipsPerSymbol)
	}
	n := len(waveform) / ChipsPerSymbol
	out := make([]int, n)
	for i := 0; i < n; i++ {
		slot := waveform[i*ChipsPerSymbol : (i+1)*ChipsPerSymbol]
		best, bestCorr := 0, math.Inf(-1)
		for s := 0; s < Symbols; s++ {
			corr := 0.0
			for c := 0; c < ChipsPerSymbol; c++ {
				corr += slot[c] * cb.chips[s][c]
			}
			if corr > bestCorr {
				best, bestCorr = s, corr
			}
		}
		out[i] = best
	}
	return out, nil
}

// Channel perturbs a chip waveform.
type Channel struct {
	// NoiseStd is the per-chip AWGN standard deviation (chip amplitude
	// is 1).
	NoiseStd float64
	// InterfererAmp and InterfererHz add a continuous-wave jammer sampled
	// at chip rate ChipRateHz.
	InterfererAmp float64
	InterfererHz  float64
	ChipRateHz    float64
}

// Apply returns the received waveform.
func (ch Channel) Apply(waveform []float64, stream *rng.Stream) []float64 {
	out := make([]float64, len(waveform))
	for i, v := range waveform {
		rx := v
		if ch.NoiseStd > 0 {
			rx += stream.NormMeanStd(0, ch.NoiseStd)
		}
		if ch.InterfererAmp > 0 {
			rate := ch.ChipRateHz
			if rate <= 0 {
				rate = 2e6 // 802.15.4 chip rate
			}
			rx += ch.InterfererAmp * math.Sin(2*math.Pi*ch.InterfererHz*float64(i)/rate)
		}
		out[i] = rx
	}
	return out
}

// SymbolErrorRate measures the empirical SER over trials random symbols
// through the channel.
func SymbolErrorRate(cb *Codebook, ch Channel, trials int, stream *rng.Stream) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("phy: non-positive trials")
	}
	errs := 0
	symbols := make([]int, trials)
	for i := range symbols {
		symbols[i] = stream.Intn(Symbols)
	}
	tx, err := cb.Spread(symbols)
	if err != nil {
		return 0, err
	}
	rx, err := cb.Despread(ch.Apply(tx, stream))
	if err != nil {
		return 0, err
	}
	for i := range symbols {
		if rx[i] != symbols[i] {
			errs++
		}
	}
	return float64(errs) / float64(trials), nil
}

// UnspreadErrorRate is the baseline: the same 4 bits per symbol sent as
// four raw ±1 chips (no spreading), hard-sliced at the receiver. Used to
// demonstrate what the spreading gain buys under noise and jamming.
func UnspreadErrorRate(ch Channel, trials int, stream *rng.Stream) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("phy: non-positive trials")
	}
	errs := 0
	const bitsPerSymbol = 4
	tx := make([]float64, trials*bitsPerSymbol)
	bits := make([]float64, len(tx))
	for i := range tx {
		if stream.Bool(0.5) {
			bits[i] = 1
		} else {
			bits[i] = -1
		}
		tx[i] = bits[i]
	}
	rx := ch.Apply(tx, stream)
	for i := 0; i < trials; i++ {
		for b := 0; b < bitsPerSymbol; b++ {
			v := rx[i*bitsPerSymbol+b]
			if (v >= 0) != (bits[i*bitsPerSymbol+b] > 0) {
				errs++
				break // one bad bit corrupts the symbol
			}
		}
	}
	return float64(errs) / float64(trials), nil
}
