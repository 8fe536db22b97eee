// Backscatterlan demonstrates the §IV.A coexistence protocol: an 802.11
// channel shared between WLAN stations and zero-energy backscatter IoT
// devices, under the proposed cycle-registered MAC and the uncoordinated
// baseline — plus the zero-energy link budget that motivates it all.
//
//	go run ./examples/backscatterlan
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"zeiot"
	"zeiot/internal/backscatter"
	"zeiot/internal/geom"
	"zeiot/internal/harvest"
	"zeiot/internal/mac"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Why backscatter: energy per bit across radio technologies.
	fmt.Println("energy per bit:")
	for _, r := range radio.StandardRadios() {
		fmt.Printf("  %-12s %.3g J/bit\n", r.Tech, r.JoulesPerBit())
	}

	// 2. A tag on the product channel: delivery over distance.
	link := radio.BackscatterLink{
		Model:       radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2.0, ShadowSigmaDB: 3},
		TagLossDB:   8,
		SourceTxDBm: 30,
	}
	tag := backscatter.NewTag(0, geom.Point{}, link)
	noise := radio.ThermalNoiseDBm(250e3, 6)
	stream := rng.New(1)
	fmt.Println("backscatter delivery vs distance (256-bit packets):")
	for _, d := range []float64{2, 8, 16, 32} {
		ok := 0
		for i := 0; i < 200; i++ {
			if tag.TransmitPacket(d, d, d, 256, noise, 80, stream).Delivered {
				ok++
			}
		}
		fmt.Printf("  %4.0f m: %5.1f%%\n", d, float64(ok)/2)
	}

	// 3. An intermittent (battery-free) device: every 10 ms tick charges
	// its capacitor with 20 µW, and it runs 80 µJ sense-and-send cycles
	// while the charge lasts.
	c := &harvest.Capacitor{CapJ: 1e-3, OnJ: 1e-4}
	const tick = 10 * time.Millisecond
	ran := 0
	for elapsed := time.Duration(0); elapsed < time.Minute; elapsed += tick {
		c.Charge(20e-6 * tick.Seconds())
		for c.Draw(8e-5) {
			ran++
		}
	}
	fmt.Printf("intermittent device: %d sense-and-send cycles in one minute on 20 µW harvest\n", ran)

	// 4. MAC coexistence: the proposed scheduler vs uncoordinated riders.
	fmt.Println("coexistence over 10 s, 20 devices, 100 ms cycles, 50 WLAN frames/s:")
	for _, mode := range []mac.Mode{mac.ModeScheduled, mac.ModeAloha} {
		cfg := mac.DefaultConfig()
		cfg.Mode = mode
		cfg.NumDevices = 20
		cfg.WLANRate = 50
		cfg.Seed = 2
		m, err := mac.Run(cfg, 10*time.Second)
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s backscatter delivery %5.1f%%  collisions %3d  wlan retries %3d  dummies %d\n",
			mode, 100*m.BSDeliveryRatio(), m.BSCollided, m.WLANRetries, m.DummyFrames)
	}

	// The registry's e6 sweeps WLAN load for the same coexistence
	// comparison; a half-length simulation keeps this a quick look.
	rc := zeiot.DefaultRunConfig()
	rc.SampleScale = 0.5
	e, err := zeiot.FindExperiment("e6")
	if err != nil {
		return err
	}
	res, err := e.Run(context.Background(), rc)
	if err != nil {
		return err
	}
	fmt.Printf("registry e6 (half-length): at 5 WLAN f/s, scheduled delivers %.1f%% vs aloha %.1f%% (in %s)\n",
		100*res.Summary["delivery_scheduled_load5"], 100*res.Summary["delivery_aloha_load5"],
		res.Timings[zeiot.StageTotal].Round(time.Millisecond))
	return nil
}
