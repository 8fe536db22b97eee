package backscatter

import (
	"math"
	"testing"

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
