// Package backscatter models the zero-energy IoT devices of the paper: an
// RF-switch tag that communicates by toggling its antenna impedance (OOK
// over the ambient-backscatter product channel), a capacitor-based energy
// harvester with turn-on/turn-off hysteresis, and the intermittent
// execution model that results — devices that accumulate µW-scale harvested
// power and burst through sensing/compute/communicate tasks when their
// storage crosses the operating threshold.
//
// The paper's own prototypes are STM32 + RF-switch hardware; per DESIGN.md
// this package is the simulated substitute that exercises the same code
// paths (link budget, bit errors, energy accounting).
package backscatter

import (
	"fmt"
	"math"
	"time"

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

// Harvester is a capacitor-based energy store with hysteresis: the device
// turns on when the stored energy reaches OnJ and browns out below OffJ —
// the standard intermittent-computing power model.
type Harvester struct {
	// CapacityJ is the usable energy capacity of the capacitor.
	CapacityJ float64
	// OnJ and OffJ are the turn-on and brown-out thresholds (OnJ > OffJ).
	OnJ, OffJ float64
	// HarvestW is the ambient harvest power (light/vibration/RF), in watts.
	HarvestW float64

	storedJ float64
	on      bool
}

// NewHarvester validates and returns a harvester. The capacitor starts
// empty and off.
func NewHarvester(capacityJ, onJ, offJ, harvestW float64) (*Harvester, error) {
	if capacityJ <= 0 || harvestW < 0 {
		return nil, fmt.Errorf("backscatter: invalid capacity %v or harvest %v", capacityJ, harvestW)
	}
	if !(offJ >= 0 && offJ < onJ && onJ <= capacityJ) {
		return nil, fmt.Errorf("backscatter: need 0 <= offJ < onJ <= capacity, got on=%v off=%v cap=%v", onJ, offJ, capacityJ)
	}
	return &Harvester{CapacityJ: capacityJ, OnJ: onJ, OffJ: offJ, HarvestW: harvestW}, nil
}

// Harvest accumulates ambient energy over dt, updating the power state.
func (h *Harvester) Harvest(dt time.Duration) {
	h.storedJ = math.Min(h.CapacityJ, h.storedJ+h.HarvestW*dt.Seconds())
	if h.storedJ >= h.OnJ {
		h.on = true
	}
}

// Consume draws energyJ from the capacitor. It returns false (and draws
// nothing) if the device is off, or browns the device out if the draw would
// push the store below the brown-out threshold — attempting work without
// the energy to finish it is exactly how intermittent devices die, so a
// refused draw costs the on-state and the device must recharge past OnJ.
func (h *Harvester) Consume(energyJ float64) bool {
	if energyJ < 0 {
		panic("backscatter: negative energy draw")
	}
	if !h.on {
		return false
	}
	if h.storedJ-energyJ < h.OffJ {
		h.on = false
		return false
	}
	h.storedJ -= energyJ
	if h.storedJ < h.OffJ {
		h.on = false
	}
	return true
}

// RFHarvestPowerW returns the power a tag harvests from an RF source of
// txDBm at distance d under model, with the given rectifier efficiency
// (typ. 0.1–0.3).
func RFHarvestPowerW(model radio.LogDistance, txDBm, d, efficiency float64) float64 {
	incidentMw := radio.DBmToMilliwatts(txDBm - model.PathLossDB(d))
	return incidentMw / 1000 * efficiency
}

// IntermittentDevice couples a harvester with a recurring task (sense +
// compute + backscatter) of fixed energy cost. Step advances time and
// reports how many task executions completed — the effective sampling rate
// any zero-energy sensing application sees.
type IntermittentDevice struct {
	Harvester *Harvester
	// TaskEnergyJ is the energy one sense-process-transmit cycle costs.
	TaskEnergyJ float64
}

// Step advances the device by dt in tick-sized increments, harvesting and
// executing the task greedily whenever energy allows. It returns the number
// of executions completed during this step.
func (d *IntermittentDevice) Step(dt, tick time.Duration) int {
	if tick <= 0 {
		panic("backscatter: non-positive tick")
	}
	ran := 0
	for elapsed := time.Duration(0); elapsed < dt; elapsed += tick {
		d.Harvester.Harvest(tick)
		for d.Harvester.Consume(d.TaskEnergyJ) {
			ran++
		}
	}
	return ran
}

// DutyCycle returns the steady-state fraction of task demand an
// intermittent device can sustain: harvested power divided by the power the
// task would need to run back-to-back (capped at 1).
func (d *IntermittentDevice) DutyCycle(taskPeriod time.Duration) float64 {
	if d.TaskEnergyJ <= 0 {
		return 1
	}
	demandW := d.TaskEnergyJ / taskPeriod.Seconds()
	return math.Min(1, d.Harvester.HarvestW/demandW)
}
