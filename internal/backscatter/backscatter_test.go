package backscatter

import (
	"math"
	"testing"
	"time"

	"zeiot/internal/geom"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
)

func testLink() radio.BackscatterLink {
	return radio.BackscatterLink{
		Model:       radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2.5},
		TagLossDB:   8,
		SourceTxDBm: 20,
	}
}

func TestTransmitPacketNearSucceedsFarFails(t *testing.T) {
	tag := NewTag(1, geom.Point{}, testLink())
	noise := radio.ThermalNoiseDBm(2e6, 6)
	near := tag.TransmitPacket(2, 2, 3, 256, noise, 80, nil)
	if !near.Delivered {
		t.Fatalf("near packet lost: SNR=%v BER=%v", near.SNR, near.BER)
	}
	far := tag.TransmitPacket(40, 40, 3, 256, noise, 80, nil)
	if far.Delivered {
		t.Fatalf("far packet delivered: SNR=%v BER=%v", far.SNR, far.BER)
	}
	if far.BER <= near.BER {
		t.Fatal("BER did not grow with distance")
	}
}

func TestPacketEnergyIsMicrojoules(t *testing.T) {
	tag := NewTag(1, geom.Point{}, testLink())
	res := tag.TransmitPacket(2, 2, 3, 250, -95, 80, nil)
	// 250 bits at 250 kbps = 1 ms at 10 µW = 10 nJ.
	want := 10e-6 * 1e-3
	if math.Abs(res.EnergyJ-want) > 1e-15 {
		t.Fatalf("packet energy = %v J, want %v", res.EnergyJ, want)
	}
}

func TestTransmitDeterministicWithSeed(t *testing.T) {
	tag := NewTag(1, geom.Point{}, testLink())
	a := tag.TransmitPacket(8, 8, 3, 512, -95, 60, rng.New(7))
	b := tag.TransmitPacket(8, 8, 3, 512, -95, 60, rng.New(7))
	if a != b {
		t.Fatal("same seed produced different packet results")
	}
}

func TestDeliveryRateMatchesPER(t *testing.T) {
	tag := NewTag(1, geom.Point{}, testLink())
	s := rng.New(9)
	// Pick a geometry with PER strictly between 0 and 1.
	probe := tag.TransmitPacket(10, 10, 3, 512, -95, 52, nil)
	per := radio.PacketErrorRate(probe.BER, 512)
	if per < 0.05 || per > 0.95 {
		t.Skipf("geometry gives degenerate PER %v; adjust test", per)
	}
	const n = 5000
	delivered := 0
	for i := 0; i < n; i++ {
		if tag.TransmitPacket(10, 10, 3, 512, -95, 52, s).Delivered {
			delivered++
		}
	}
	got := float64(delivered) / n
	if math.Abs(got-(1-per)) > 0.03 {
		t.Fatalf("delivery rate %v, want %v", got, 1-per)
	}
}

func TestHarvesterValidation(t *testing.T) {
	cases := []struct{ capJ, on, off, hw float64 }{
		{0, 1, 0, 1},     // no capacity
		{1, 0.5, 0.6, 1}, // off above on
		{1, 2, 0.1, 1},   // on above capacity
		{1, 0.5, 0.1, -1},
	}
	for _, c := range cases {
		if _, err := NewHarvester(c.capJ, c.on, c.off, c.hw); err == nil {
			t.Fatalf("invalid harvester accepted: %+v", c)
		}
	}
}

func TestHarvesterHysteresis(t *testing.T) {
	h, err := NewHarvester(1e-3, 5e-4, 1e-4, 1e-4) // 100 µW harvest
	if err != nil {
		t.Fatal(err)
	}
	if h.on {
		t.Fatal("starts on")
	}
	// 100 µW for 4 s = 400 µJ < 500 µJ threshold: still off.
	h.Harvest(4 * time.Second)
	if h.on {
		t.Fatal("turned on below threshold")
	}
	if h.Consume(1e-5) {
		t.Fatal("consumed while off")
	}
	// Another 2 s crosses the 500 µJ turn-on.
	h.Harvest(2 * time.Second)
	if !h.on {
		t.Fatal("did not turn on")
	}
	// Drain down to the brown-out threshold.
	for h.Consume(1e-4) {
	}
	if h.on {
		t.Fatal("still on after brown-out")
	}
	if h.storedJ < 0 {
		t.Fatal("negative stored energy")
	}
	// Must re-charge past OnJ again, not just OffJ.
	h.Harvest(1 * time.Second) // +100 µJ: above OffJ but below OnJ
	if h.on {
		t.Fatal("re-enabled below turn-on threshold (hysteresis broken)")
	}
}

func TestHarvesterCapacityClamp(t *testing.T) {
	h, err := NewHarvester(1e-3, 5e-4, 1e-4, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.Harvest(time.Hour)
	if h.storedJ != 1e-3 {
		t.Fatalf("stored %v exceeds capacity", h.storedJ)
	}
}

func TestEnergyConservation(t *testing.T) {
	h, err := NewHarvester(1, 0.5, 0.0, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	h.Harvest(2 * time.Second) // +0.5 J, turns on
	drawn := 0.0
	for h.Consume(0.05) {
		drawn += 0.05
	}
	if math.Abs(drawn+h.storedJ-0.5) > 1e-12 {
		t.Fatalf("energy not conserved: drawn %v + stored %v != 0.5", drawn, h.storedJ)
	}
}

func TestRFHarvestPower(t *testing.T) {
	model := radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2}
	near := RFHarvestPowerW(model, 30, 1, 0.2)
	far := RFHarvestPowerW(model, 30, 4, 0.2)
	if near <= far {
		t.Fatal("harvest power should fall with distance")
	}
	// 30 dBm - 40 dB = -10 dBm = 0.1 mW incident; 20% → 20 µW.
	if math.Abs(near-20e-6) > 1e-9 {
		t.Fatalf("near harvest = %v W", near)
	}
}

func TestIntermittentDeviceThroughputScalesWithHarvest(t *testing.T) {
	run := func(harvestW float64) int {
		h, err := NewHarvester(1e-3, 5e-5, 0, harvestW)
		if err != nil {
			t.Fatal(err)
		}
		d := &IntermittentDevice{Harvester: h, TaskEnergyJ: 5e-5}
		return d.Step(10*time.Second, 10*time.Millisecond)
	}
	low := run(1e-5)
	high := run(1e-4)
	if low == 0 {
		t.Fatal("low-harvest device never ran")
	}
	ratio := float64(high) / float64(low)
	if ratio < 8 || ratio > 12 {
		t.Fatalf("10x harvest gave %.1fx executions (low=%d high=%d)", ratio, low, high)
	}
	// Long-run execution rate matches energy balance: harvest/taskEnergy.
	wantPerSec := 1e-4 / 5e-5
	if math.Abs(float64(high)/10-wantPerSec) > 0.3*wantPerSec {
		t.Fatalf("execution rate %v/s, want ~%v", float64(high)/10, wantPerSec)
	}
}

func TestDutyCycle(t *testing.T) {
	h, err := NewHarvester(1e-3, 2e-4, 0, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	d := &IntermittentDevice{Harvester: h, TaskEnergyJ: 1e-4}
	// Task wants 1e-4 J per second = 100 µW demand; harvesting 10 µW → 10%.
	if dc := d.DutyCycle(time.Second); math.Abs(dc-0.1) > 1e-9 {
		t.Fatalf("duty cycle = %v", dc)
	}
	d.TaskEnergyJ = 1e-6 // trivial task → capped at 1
	if dc := d.DutyCycle(time.Second); dc != 1 {
		t.Fatalf("duty cycle = %v, want 1", dc)
	}
}
