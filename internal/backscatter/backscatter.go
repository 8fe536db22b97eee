// Package backscatter models the zero-energy IoT tag of the paper: an
// RF-switch tag that communicates by toggling its antenna impedance (OOK
// over the ambient-backscatter product channel), with the energy each
// packet costs. Package harvest models the capacitor that funds it.
//
// The paper's own prototypes are STM32 + RF-switch hardware; per DESIGN.md
// this package is the simulated substitute that exercises the same code
// paths (link budget, bit errors, energy accounting).
package backscatter

import (
	"zeiot/internal/geom"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
)

// Tag is one zero-energy backscatter tag.
type Tag struct {
	ID  int
	Pos geom.Point
	// Link is the product channel the tag modulates.
	Link radio.BackscatterLink
	// BitRate of the tag's OOK modulation in bits/s (ambient backscatter
	// prototypes run 1 kbps–1 Mbps).
	BitRate float64
	// SwitchPowerW is the power the RF switch and control logic draw while
	// modulating (~10 µW, the paper's "about 1/10,000" figure).
	SwitchPowerW float64
	// SpreadingGain is the DSSS chips-per-bit of the modulation. The
	// paper's testbed backscatters IEEE 802.15.4 frames, whose direct
	// sequence spread spectrum is exactly why "communication distance is
	// long due to spread gain" (§IV.A). 1 or less means plain OOK.
	SpreadingGain float64
}

// NewTag returns a tag with the nominal parameters of the paper's 2.4 GHz
// prototype: 250 kbps ZigBee-compatible chipping with spreading gain 8,
// 10 µW switching power.
func NewTag(id int, pos geom.Point, link radio.BackscatterLink) *Tag {
	return &Tag{ID: id, Pos: pos, Link: link, BitRate: 250e3, SwitchPowerW: 10e-6, SpreadingGain: 8}
}

// PacketResult describes one attempted backscatter packet.
type PacketResult struct {
	Delivered bool
	BER       float64
	SNR       float64
	EnergyJ   float64
}

// TransmitPacket attempts to deliver a packet of the given bit length from
// the tag to a receiver. dSourceTag/dTagRx/dSourceRx are the geometry of the
// product channel; noiseDBm the receiver noise floor; cancellationDB the
// receiver's carrier suppression. The draw from stream decides delivery
// against the packet error rate; a nil stream returns the deterministic
// expectation (Delivered = PER < 0.5).
func (t *Tag) TransmitPacket(dSourceTag, dTagRx, dSourceRx float64, bits int, noiseDBm, cancellationDB float64, stream *rng.Stream) PacketResult {
	if bits <= 0 {
		panic("backscatter: non-positive packet length")
	}
	snr := t.Link.SNR(dSourceTag, dTagRx, dSourceRx, noiseDBm, cancellationDB, stream)
	var ber float64
	if t.SpreadingGain > 1 {
		ber = radio.BERDSSS(snr, t.SpreadingGain)
	} else {
		ber = radio.BEROOK(snr)
	}
	per := radio.PacketErrorRate(ber, bits)
	res := PacketResult{
		BER:     ber,
		SNR:     snr,
		EnergyJ: t.SwitchPowerW * float64(bits) / t.BitRate,
	}
	if stream != nil {
		res.Delivered = !stream.Bool(per)
	} else {
		res.Delivered = per < 0.5
	}
	return res
}
