// Package sensors models two of the zero-energy sensing devices of §III.A
// and §III.C: transducers that convert a physical quantity directly into an
// antenna impedance state, so the measurement can be read out by observing
// backscattered Wi-Fi — no battery, no ADC, no radio. Each device's Step
// takes the physical input and returns the impedance state it presents.
//
//   - SpringAccelerometer — a spring-mass harvesting accelerometer for the
//     slope-monitoring use case (v): vibration drives a resonant contact
//     whose chatter frequency encodes the excitation amplitude. Package har
//     builds its resonator bank from it.
//   - FlowMeter — the printed Wi-Fi water meter of ref. [36] (§II.B), whose
//     turbine gear toggles the antenna impedance as it turns (E12).
package sensors

import (
	"fmt"
	"math"
)

// SpringAccelerometer is a resonant spring-mass contact: sinusoidal ground
// excitation above the contact threshold makes the mass chatter, and the
// chatter rate grows with excitation amplitude. Step is called once per
// sample tick with the instantaneous ground acceleration.
type SpringAccelerometer struct {
	// NaturalHz is the resonant frequency; DampingRatio the damper.
	NaturalHz    float64
	DampingRatio float64
	// ContactG is the displacement threshold (in normalized units) where
	// the contact closes.
	ContactG float64
	// TickSec is the simulation step.
	TickSec float64

	pos, vel float64
}

// NewSpringAccelerometer returns a device with the given resonance.
func NewSpringAccelerometer(naturalHz, dampingRatio, contactG, tickSec float64) (*SpringAccelerometer, error) {
	if naturalHz <= 0 || dampingRatio < 0 || contactG <= 0 || tickSec <= 0 {
		return nil, fmt.Errorf("sensors: invalid accelerometer params")
	}
	return &SpringAccelerometer{NaturalHz: naturalHz, DampingRatio: dampingRatio, ContactG: contactG, TickSec: tickSec}, nil
}

// Step advances the resonator by one tick of ground acceleration accel and
// returns the contact state: 1 while the proof mass deflection exceeds the
// contact threshold, else 0.
func (s *SpringAccelerometer) Step(accel float64) int {
	w := 2 * math.Pi * s.NaturalHz
	// Semi-implicit Euler of x'' + 2ζω x' + ω² x = -a(t).
	s.vel += s.TickSec * (-accel - 2*s.DampingRatio*w*s.vel - w*w*s.pos)
	s.pos += s.TickSec * s.vel
	if math.Abs(s.pos) >= s.ContactG {
		return 1
	}
	return 0
}

// FlowMeter is the Printed Wi-Fi water meter of ref. [36] (§II.B): water
// flow spins a 3D-printed turbine whose gear toggles the antenna impedance
// once per revolution, so the reader sees an on/off pattern whose rate
// encodes the flow.
type FlowMeter struct {
	// LitersPerRev is the volume that passes per turbine revolution.
	LitersPerRev float64
	// TogglesPerRev is how many impedance flips the gear produces per
	// revolution (2 for a half-shaded disc).
	TogglesPerRev int

	angle float64 // revolutions, fractional
	state int
}

// NewFlowMeter validates and returns a flow meter.
func NewFlowMeter(litersPerRev float64, togglesPerRev int) (*FlowMeter, error) {
	if litersPerRev <= 0 || togglesPerRev < 1 {
		return nil, fmt.Errorf("sensors: invalid flow meter (%v L/rev, %d toggles)", litersPerRev, togglesPerRev)
	}
	return &FlowMeter{LitersPerRev: litersPerRev, TogglesPerRev: togglesPerRev}, nil
}

// Step advances the turbine by the volume (litres) that flowed since the
// previous step and returns the impedance state, 0 or 1, which flips
// TogglesPerRev times per revolution.
func (f *FlowMeter) Step(liters float64) int {
	if liters < 0 {
		liters = 0
	}
	f.angle += liters / f.LitersPerRev
	// State = parity of completed toggle intervals.
	f.state = int(f.angle*float64(f.TogglesPerRev)) % 2
	return f.state
}

// CountToggles replays a flow series (litres per tick) and returns the
// number of impedance transitions — what the Wi-Fi receiver counts.
func (f *FlowMeter) CountToggles(flow []float64) int {
	prev := f.state
	toggles := 0
	for _, v := range flow {
		s := f.Step(v)
		if s != prev {
			toggles++
			prev = s
		}
	}
	return toggles
}

// VolumeFromToggles inverts the count: each toggle corresponds to
// LitersPerRev/TogglesPerRev litres.
func (f *FlowMeter) VolumeFromToggles(toggles int) float64 {
	return float64(toggles) * f.LitersPerRev / float64(f.TogglesPerRev)
}
