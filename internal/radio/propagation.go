// Package radio implements the RF propagation models underlying every
// zeiot simulator: log-distance path loss with lognormal shadowing,
// thermal noise and BER curves, a multipath OFDM channel used for CSI
// generation, and the two-segment product channel of ambient backscatter
// links.
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
