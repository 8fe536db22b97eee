package backscatter_test

import (
	"fmt"

	"zeiot/internal/backscatter"
	"zeiot/internal/geom"
	"zeiot/internal/radio"
)

// Example sends one packet from a tag on the product channel and prints
// what it cost.
func Example() {
	link := radio.BackscatterLink{
		Model:       radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2},
		TagLossDB:   8,
		SourceTxDBm: 30,
	}
	tag := backscatter.NewTag(1, geom.Point{}, link)
	noise := radio.ThermalNoiseDBm(250e3, 6)
	res := tag.TransmitPacket(5, 5, 5, 256, noise, 80, nil)
	fmt.Println("5 m packet delivered:", res.Delivered)
	fmt.Printf("packet energy: %.1f nJ\n", res.EnergyJ*1e9)
	// Output:
	// 5 m packet delivered: true
	// packet energy: 10.2 nJ
}
