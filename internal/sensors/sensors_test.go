package sensors

import (
	"math"
	"testing"
)

func TestAccelerometerValidation(t *testing.T) {
	if _, err := NewSpringAccelerometer(0, 0.1, 0.5, 0.001); err == nil {
		t.Fatal("zero natural frequency accepted")
	}
	if _, err := NewSpringAccelerometer(10, 0.1, 0, 0.001); err == nil {
		t.Fatal("zero contact threshold accepted")
	}
}

func TestAccelerometerChatterGrowsWithAmplitude(t *testing.T) {
	a, err := NewSpringAccelerometer(5, 0.05, 0.002, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	quiet := chatterRate(a, 0.1, 5, 4)
	strong := chatterRate(a, 4.0, 5, 4)
	if strong <= quiet {
		t.Fatalf("chatter did not grow: quiet %v strong %v", quiet, strong)
	}
	if strong <= 0 {
		t.Fatal("strong excitation produced no chatter")
	}
}

func TestAccelerometerResonancePeaks(t *testing.T) {
	a, err := NewSpringAccelerometer(5, 0.05, 0.002, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	atResonance := chatterRate(a, 0.5, 5, 4)
	offResonance := chatterRate(a, 0.5, 20, 4)
	if atResonance <= offResonance {
		t.Fatalf("no resonance peak: at %v off %v", atResonance, offResonance)
	}
}

func TestAccelerometerSilentWithoutInput(t *testing.T) {
	a, err := NewSpringAccelerometer(5, 0.05, 0.01, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if rate := chatterRate(a, 0, 5, 2); rate != 0 {
		t.Fatalf("chatter with zero input: %v", rate)
	}
}

func TestFlowMeterValidation(t *testing.T) {
	if _, err := NewFlowMeter(0, 2); err == nil {
		t.Fatal("zero liters/rev accepted")
	}
	if _, err := NewFlowMeter(1, 0); err == nil {
		t.Fatal("zero toggles accepted")
	}
}

func TestFlowMeterCountsVolume(t *testing.T) {
	f, err := NewFlowMeter(0.5, 2) // half litre per rev, 2 toggles/rev
	if err != nil {
		t.Fatal(err)
	}
	// 10 litres in 1000 ticks = 20 revolutions = 40 toggles.
	flow := make([]float64, 1000)
	for i := range flow {
		flow[i] = 0.01
	}
	// Floating-point accumulation may leave the final toggle a hair short.
	toggles := f.CountToggles(flow)
	if toggles < 39 || toggles > 40 {
		t.Fatalf("toggles = %d, want 39-40", toggles)
	}
	vol := f.VolumeFromToggles(toggles)
	if vol < 9.7 || vol > 10.01 {
		t.Fatalf("volume = %v L, want ~10", vol)
	}
}

func TestFlowMeterZeroFlowIsSilent(t *testing.T) {
	f, err := NewFlowMeter(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	flow := make([]float64, 100)
	if got := f.CountToggles(flow); got != 0 {
		t.Fatalf("zero flow toggled %d times", got)
	}
	// Negative inputs are clamped.
	if f.Step(-5) != 0 {
		t.Fatal("negative flow moved the gear")
	}
}

func TestFlowMeterRateProportional(t *testing.T) {
	count := func(rate float64) int {
		f, err := NewFlowMeter(0.5, 2)
		if err != nil {
			t.Fatal(err)
		}
		flow := make([]float64, 500)
		for i := range flow {
			flow[i] = rate
		}
		return f.CountToggles(flow)
	}
	slow := count(0.005)
	fast := count(0.01)
	if fast < slow*2-1 || fast > slow*2+1 {
		t.Fatalf("doubling flow: %d -> %d toggles", slow, fast)
	}
}

// chatterRate runs the accelerometer over a sinusoidal excitation of the
// given amplitude and frequency for duration seconds and returns the
// fraction of ticks the contact is closed — the quantity a backscatter
// reader measures to estimate vibration strength.
func chatterRate(s *SpringAccelerometer, amplitude, freqHz, durationSec float64) float64 {
	s.pos, s.vel = 0, 0
	ticks := int(durationSec / s.TickSec)
	closed := 0
	for i := 0; i < ticks; i++ {
		tSec := float64(i) * s.TickSec
		a := amplitude * math.Sin(2*math.Pi*freqHz*tSec)
		closed += s.Step(a)
	}
	if ticks == 0 {
		return 0
	}
	return float64(closed) / float64(ticks)
}
