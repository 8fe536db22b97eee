package harvest

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
)

func TestProfileNames(t *testing.T) {
	for _, p := range []Profile{ProfileRF, ProfileSolar, ProfileThermal} {
		got, err := ProfileByName(p.String())
		if err != nil || got != p {
			t.Errorf("ProfileByName(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ProfileByName("fusion"); err == nil {
		t.Error("ProfileByName accepted an unknown profile")
	}
}

// TestTraceIsPure checks PowerW is a pure function of (trace, tick):
// identical inputs agree regardless of evaluation order, and different
// nodes or seeds see different sequences.
func TestTraceIsPure(t *testing.T) {
	tr := Trace{Seed: 42, Node: 7, Profile: ProfileRF, MeanW: 100e-6}
	var forward, backward []float64
	for tick := uint64(0); tick < 1000; tick++ {
		forward = append(forward, tr.PowerW(tick))
	}
	for tick := int64(999); tick >= 0; tick-- {
		backward = append(backward, tr.PowerW(uint64(tick)))
	}
	for i := range forward {
		if forward[i] != backward[len(backward)-1-i] {
			t.Fatalf("PowerW(%d) depends on evaluation order", i)
		}
	}

	other := tr
	other.Node = 8
	same := 0
	for tick := uint64(0); tick < 1000; tick++ {
		if tr.PowerW(tick) == other.PowerW(tick) {
			same++
		}
	}
	// RF dead air makes some coincident zeros expected; full agreement is not.
	if same == 1000 {
		t.Error("two nodes share an identical power sequence")
	}
}

// TestTraceMeanCalibration checks the long-run mean of every profile lands
// near MeanW — the knob the E17 sweep varies.
func TestTraceMeanCalibration(t *testing.T) {
	const mean = 100e-6
	const horizon = 400_000 // many solar periods and RF slots
	for _, p := range []Profile{ProfileRF, ProfileSolar, ProfileThermal} {
		tr := Trace{Seed: 9, Node: 3, Profile: p, MeanW: mean}
		sum := 0.0
		for tick := uint64(0); tick < horizon; tick++ {
			sum += tr.PowerW(tick)
		}
		got := sum / horizon
		if math.Abs(got-mean)/mean > 0.05 {
			t.Errorf("%v: long-run mean %.3g, want %.3g ± 5%%", p, got, mean)
		}
	}
}

func TestTraceZeroMeanIsDead(t *testing.T) {
	tr := Trace{Seed: 1, Node: 0, Profile: ProfileThermal, MeanW: 0}
	for tick := uint64(0); tick < 100; tick++ {
		if tr.PowerW(tick) != 0 {
			t.Fatal("zero-mean trace produced power")
		}
	}
}

func TestCapacitorHysteresis(t *testing.T) {
	// Integer-valued joules keep threshold comparisons exact.
	c := &Capacitor{CapJ: 100, OnJ: 50, OffJ: 10}
	if c.On || c.Draw(1) {
		t.Fatal("empty capacitor powered on or funded a draw")
	}
	c.Charge(49)
	if c.On {
		t.Fatal("turned on below OnJ")
	}
	c.Charge(1)
	if !c.On {
		t.Fatal("did not turn on at OnJ")
	}
	// A draw that would land below OffJ browns out without spending.
	before := c.StoredJ
	if c.Draw(45) {
		t.Fatal("funded a draw that crosses OffJ")
	}
	if c.On || c.StoredJ != before {
		t.Fatalf("refused draw changed state: on=%v stored=%v (was %v)", c.On, c.StoredJ, before)
	}
	// Off: even an affordable draw is refused until recharged past OnJ.
	if c.Draw(1) {
		t.Fatal("browned-out capacitor funded a draw")
	}
	c.StoredJ = 20 // drain below OnJ: recharging must cross the threshold again
	c.Charge(1)
	if c.On {
		t.Fatal("turned back on below OnJ after brownout")
	}
	c.Charge(29)
	if !c.On {
		t.Fatal("did not turn back on at OnJ after recharge")
	}
	// Charging clamps at capacity.
	if got := c.Charge(1000); c.StoredJ != c.CapJ {
		t.Fatalf("charge did not clamp at capacity: stored %v, accepted %v", c.StoredJ, got)
	}
	// A draw landing exactly at OffJ stays on (threshold is exclusive).
	c.StoredJ, c.On = 50, true
	if !c.Draw(40) || !c.On {
		t.Fatalf("draw to exactly OffJ should succeed and stay on: stored=%v on=%v", c.StoredJ, c.On)
	}
}

// TestNodeCheckpointRoundTrip runs a node halfway, snapshots it through gob
// (the checkpoint path), and requires the resumed copy's ledger to track the
// uninterrupted node tick for tick — the property the E17 kill/resume flow
// depends on.
func TestNodeCheckpointRoundTrip(t *testing.T) {
	mk := func() *Node {
		return &Node{
			Trace:       Trace{Seed: 1234, Node: 5, Profile: ProfileRF, MeanW: 80e-6},
			Cap:         Capacitor{CapJ: 100e-6, OnJ: 50e-6, OffJ: 10e-6},
			TickSeconds: 0.01,
			IdleDrawJ:   0.2e-6,
		}
	}
	taskJ := 30e-6

	ref := mk()
	var mid bytes.Buffer
	for i := 0; i < 20_000; i++ {
		if i == 10_000 {
			if err := gob.NewEncoder(&mid).Encode(ref); err != nil {
				t.Fatal(err)
			}
		}
		if ref.StepTick() {
			ref.TrySpend(taskJ)
		}
	}
	if ref.Brownouts == 0 || ref.ActiveTicks == 0 {
		t.Fatalf("test trace never exercised brownouts (%d) or activity (%d): recalibrate", ref.Brownouts, ref.ActiveTicks)
	}

	var resumed Node
	if err := gob.NewDecoder(bytes.NewReader(mid.Bytes())).Decode(&resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.Tick != 10_000 {
		t.Fatalf("checkpoint captured tick %d, want 10000", resumed.Tick)
	}
	for i := 0; i < 10_000; i++ {
		if resumed.StepTick() {
			resumed.TrySpend(taskJ)
		}
	}
	if resumed != *ref {
		t.Fatalf("resumed node diverged:\n resumed %+v\n ref     %+v", resumed, *ref)
	}

	if dc := ref.DutyCycle(); dc <= 0 || dc >= 1 {
		t.Errorf("duty cycle %v not in (0,1) for an intermittent trace", dc)
	}
}

// TestNodeDutyCycleScalesWithPower checks more harvest means more uptime —
// the monotonicity the E17 sweep reports.
func TestNodeDutyCycleScalesWithPower(t *testing.T) {
	duty := func(meanW float64) float64 {
		n := &Node{
			Trace:       Trace{Seed: 7, Node: 1, Profile: ProfileSolar, MeanW: meanW},
			Cap:         Capacitor{CapJ: 100e-6, OnJ: 50e-6, OffJ: 10e-6},
			TickSeconds: 0.01,
			IdleDrawJ:   0.2e-6,
		}
		for i := 0; i < 30_000; i++ {
			if n.StepTick() {
				n.TrySpend(2e-6)
			}
		}
		return n.DutyCycle()
	}
	low, high := duty(5e-6), duty(400e-6)
	if !(high > low) {
		t.Errorf("duty cycle not increasing in harvest power: %v (5µW) vs %v (400µW)", low, high)
	}
}
