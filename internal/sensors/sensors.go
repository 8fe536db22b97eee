// Package sensors models the zero-energy sensing devices of §III.A and
// §III.C: transducers that convert a physical quantity directly into an
// antenna impedance state, so the measurement can be read out by observing
// backscattered Wi-Fi — no battery, no ADC, no radio.
//
//   - BimetallicSwitch — the paper's Fig. 2(b) temperature sensor: a
//     bimetallic strip opens/closes the RF switch at a threshold
//     temperature, with mechanical hysteresis.
//   - IRFilmPixel — a film-type infra-red pixel (Fig. 9's array) whose
//     conductance, quantized to a few impedance states, follows incident
//     body heat.
//   - SpringAccelerometer — a spring-mass harvesting accelerometer for the
//     slope-monitoring use case (v): vibration drives a resonant contact
//     whose chatter frequency encodes the excitation amplitude.
//
// Every device implements Device: physical input in, impedance state out.
package sensors

import (
	"fmt"
	"math"
)

// Device is a zero-energy transducer: it maps the current physical input
// to one of States() discrete antenna impedance states. A reader recovers
// the state by demodulating the backscattered signal.
type Device interface {
	// Step advances the device with the current physical input and
	// returns the impedance state it presents.
	Step(input float64) int
	// States returns the number of distinguishable impedance states.
	States() int
}

// BimetallicSwitch toggles its RF switch when temperature crosses a
// threshold, with hysteresis from the strip's mechanical snap.
type BimetallicSwitch struct {
	// OnAboveC closes the switch; OffBelowC re-opens it (OffBelowC <
	// OnAboveC).
	OnAboveC, OffBelowC float64
	closed              bool
}

var _ Device = (*BimetallicSwitch)(nil)

// NewBimetallicSwitch validates thresholds and returns the switch (open).
func NewBimetallicSwitch(onAboveC, offBelowC float64) (*BimetallicSwitch, error) {
	if offBelowC >= onAboveC {
		return nil, fmt.Errorf("sensors: hysteresis requires off %v < on %v", offBelowC, onAboveC)
	}
	return &BimetallicSwitch{OnAboveC: onAboveC, OffBelowC: offBelowC}, nil
}

// Step implements Device: input is temperature in °C.
func (b *BimetallicSwitch) Step(tempC float64) int {
	if tempC >= b.OnAboveC {
		b.closed = true
	} else if tempC <= b.OffBelowC {
		b.closed = false
	}
	if b.closed {
		return 1
	}
	return 0
}

// States implements Device.
func (b *BimetallicSwitch) States() int { return 2 }

// IRFilmPixel quantizes incident IR flux into impedance levels. Flux is
// normalized to [0,1] (body heat saturates the film at 1).
type IRFilmPixel struct {
	// Levels is the number of impedance states (≥ 2).
	Levels int
}

var _ Device = (*IRFilmPixel)(nil)

// Step implements Device: input is normalized IR flux.
func (p *IRFilmPixel) Step(flux float64) int {
	if p.Levels < 2 {
		panic("sensors: IRFilmPixel needs >= 2 levels")
	}
	if flux < 0 {
		flux = 0
	}
	if flux > 1 {
		flux = 1
	}
	state := int(flux * float64(p.Levels))
	if state == p.Levels {
		state = p.Levels - 1
	}
	return state
}

// States implements Device.
func (p *IRFilmPixel) States() int { return p.Levels }

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

var _ Device = (*SpringAccelerometer)(nil)

// NewSpringAccelerometer returns a device with the given resonance.
func NewSpringAccelerometer(naturalHz, dampingRatio, contactG, tickSec float64) (*SpringAccelerometer, error) {
	if naturalHz <= 0 || dampingRatio < 0 || contactG <= 0 || tickSec <= 0 {
		return nil, fmt.Errorf("sensors: invalid accelerometer params")
	}
	return &SpringAccelerometer{NaturalHz: naturalHz, DampingRatio: dampingRatio, ContactG: contactG, TickSec: tickSec}, nil
}

// Step implements Device: input is ground acceleration; the state is 1
// while the proof mass deflection exceeds the contact threshold.
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

// States implements Device.
func (s *SpringAccelerometer) States() int { return 2 }

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

var _ Device = (*FlowMeter)(nil)

// NewFlowMeter validates and returns a flow meter.
func NewFlowMeter(litersPerRev float64, togglesPerRev int) (*FlowMeter, error) {
	if litersPerRev <= 0 || togglesPerRev < 1 {
		return nil, fmt.Errorf("sensors: invalid flow meter (%v L/rev, %d toggles)", litersPerRev, togglesPerRev)
	}
	return &FlowMeter{LitersPerRev: litersPerRev, TogglesPerRev: togglesPerRev}, nil
}

// Step implements Device: input is the volume (litres) that flowed since
// the previous step. The state flips TogglesPerRev times per revolution.
func (f *FlowMeter) Step(liters float64) int {
	if liters < 0 {
		liters = 0
	}
	f.angle += liters / f.LitersPerRev
	// State = parity of completed toggle intervals.
	f.state = int(f.angle*float64(f.TogglesPerRev)) % 2
	return f.state
}

// States implements Device.
func (f *FlowMeter) States() int { return 2 }

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
