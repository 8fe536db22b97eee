// Package radio implements the RF propagation models underlying every
// zeiot simulator: log-distance path loss with lognormal shadowing,
// Rayleigh/Rician small-scale fading, thermal noise and BER curves, a
// multipath OFDM channel used for CSI generation, and the two-segment
// product channel of ambient backscatter links.
//
// Conventions: powers are dBm unless a name says milliwatts; gains and
// losses are dB; distances are metres; frequencies are Hz.
package radio

import (
	"math"

	"zeiot/internal/rng"
)

// SpeedOfLight in m/s.
const SpeedOfLight = 299792458.0

// DBmToMilliwatts converts dBm to mW.
func DBmToMilliwatts(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MilliwattsToDBm converts mW to dBm.
func MilliwattsToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// FreeSpacePathLoss returns the Friis free-space loss in dB at distance d
// metres and frequency freq Hz.
func FreeSpacePathLoss(d, freq float64) float64 {
	if d <= 0 {
		d = 1e-3
	}
	lambda := SpeedOfLight / freq
	return 20 * math.Log10(4*math.Pi*d/lambda)
}

// LogDistance is the classic log-distance path-loss model with lognormal
// shadowing: PL(d) = PL(d0) + 10·n·log10(d/d0) + X_sigma.
type LogDistance struct {
	// RefLossDB is the path loss at the reference distance RefDist.
	RefLossDB float64
	// RefDist is the reference distance in metres (typically 1 m).
	RefDist float64
	// Exponent is the path-loss exponent n (2 free space, 2.5–4 indoors).
	Exponent float64
	// ShadowSigmaDB is the lognormal shadowing standard deviation; 0
	// disables shadowing.
	ShadowSigmaDB float64
}

// PathLossDB returns the deterministic (no shadowing) loss at distance d.
func (m LogDistance) PathLossDB(d float64) float64 {
	if d < m.RefDist {
		d = m.RefDist
	}
	return m.RefLossDB + 10*m.Exponent*math.Log10(d/m.RefDist)
}

// SampleLossDB returns the loss at distance d with one shadowing draw from
// stream. A nil stream yields the deterministic loss.
func (m LogDistance) SampleLossDB(d float64, stream *rng.Stream) float64 {
	loss := m.PathLossDB(d)
	if stream != nil && m.ShadowSigmaDB > 0 {
		loss += stream.NormMeanStd(0, m.ShadowSigmaDB)
	}
	return loss
}

// RSSI returns received power in dBm for a transmit power, antenna gains,
// and one sampled loss.
func (m LogDistance) RSSI(txDBm, txGainDB, rxGainDB, d float64, stream *rng.Stream) float64 {
	return txDBm + txGainDB + rxGainDB - m.SampleLossDB(d, stream)
}

// RayleighGain draws a Rayleigh-faded power gain (linear, mean 1). The
// amplitude is |h| with h ~ CN(0,1).
func RayleighGain(stream *rng.Stream) float64 {
	re := stream.NormMeanStd(0, math.Sqrt2/2)
	im := stream.NormMeanStd(0, math.Sqrt2/2)
	return re*re + im*im
}

// RicianGain draws a Rician-faded power gain (linear, mean 1) with K-factor
// k (ratio of LoS to scattered power).
func RicianGain(k float64, stream *rng.Stream) float64 {
	if k < 0 {
		k = 0
	}
	// LoS component amplitude and scattered sigma chosen so E[gain]=1.
	los := math.Sqrt(k / (k + 1))
	sigma := math.Sqrt(1 / (2 * (k + 1)))
	re := los + stream.NormMeanStd(0, sigma)
	im := stream.NormMeanStd(0, sigma)
	return re*re + im*im
}

// ThermalNoiseDBm returns the thermal noise floor for bandwidth Hz at 290 K
// with the given receiver noise figure: -174 dBm/Hz + 10log10(B) + NF.
func ThermalNoiseDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(bandwidthHz) + noiseFigureDB
}

// qFunc is the Gaussian tail probability Q(x).
func qFunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// BERBPSK returns the bit error rate of coherent BPSK at the given linear
// SNR per bit.
func BERBPSK(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	return qFunc(math.Sqrt(2 * snr))
}

// BEROOK returns the bit error rate of non-coherent on-off keying (the
// modulation of ambient backscatter tags) at the given linear SNR.
func BEROOK(snr float64) float64 {
	if snr <= 0 {
		return 0.5
	}
	return 0.5 * math.Exp(-snr/4)
}

// BERDSSS returns the effective BER of an IEEE 802.15.4-style DSSS link:
// the spreading gain (chips per bit) is applied to the SNR before a BPSK
// decision.
func BERDSSS(snr float64, spreadingGain float64) float64 {
	return BERBPSK(snr * spreadingGain)
}

// PacketErrorRate returns 1-(1-ber)^bits, the probability at least one bit
// of a bits-long packet is corrupted (no FEC).
func PacketErrorRate(ber float64, bits int) float64 {
	if ber <= 0 {
		return 0
	}
	if ber >= 1 {
		return 1
	}
	return 1 - math.Pow(1-ber, float64(bits))
}
