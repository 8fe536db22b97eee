// Elderly walks the paper's use case (i): monitoring elderly people's
// sleep and context changes at a care facility with zero-energy devices —
// overnight vital signs through a chest RFID tag array (RF-ECG, ref [58])
// and daytime fall detection through a film-type IR sensor array running
// the MicroDeep CNN.
//
//	go run ./examples/elderly
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"zeiot"
	"zeiot/internal/cnn"
	"zeiot/internal/dataset"
	"zeiot/internal/microdeep"
	"zeiot/internal/rng"
	"zeiot/internal/vitals"
	"zeiot/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	root := rng.New(8)

	// --- Night: vital monitoring through the mattress-side reader.
	cfg := vitals.DefaultConfig()
	fmt.Println("overnight vitals (30 s windows):")
	for hour, subject := range []vitals.Subject{
		{HeartHz: 1.0, BreathHz: 0.22, HeartMM: 0.5, BreathMM: 4, Jitter: 0.03},  // settling
		{HeartHz: 0.9, BreathHz: 0.2, HeartMM: 0.5, BreathMM: 4.5, Jitter: 0.02}, // deep sleep
		{HeartHz: 1.2, BreathHz: 0.3, HeartMM: 0.5, BreathMM: 3.5, Jitter: 0.05}, // restless
	} {
		phases := vitals.Capture(cfg, subject, root.Split("window"))
		heart, breath, err := vitals.Estimate(cfg, phases)
		if err != nil {
			return err
		}
		fmt.Printf("  window %d: %3.0f bpm, %4.1f breaths/min (truth %3.0f / %4.1f)\n",
			hour+1, vitals.BPM(heart), vitals.BPM(breath),
			vitals.BPM(subject.HeartHz), vitals.BPM(subject.BreathHz))
	}

	// --- Day: fall detection on the corridor's IR array.
	gait := dataset.DefaultGaitConfig()
	gait.Streams = 30
	gait.NoiseLevel = 0.4
	streams, err := dataset.GenerateGaitStreamsFrom(gait, rng.New(gait.Seed))
	if err != nil {
		return err
	}
	samples := dataset.BalancedWindows(gait, streams, 1.0, root.Split("bal"))
	cut := len(samples) * 3 / 4
	s := root.Split("net")
	net := cnn.NewNetwork([]int{gait.WindowFrames, gait.Rows, gait.Cols},
		cnn.NewConv2D(gait.WindowFrames, 6, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(6*4*4, 16, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(16, 2, s.Split("d2")),
	)
	grid := wsn.NewGrid(gait.Rows, gait.Cols, 0.3)
	model, err := microdeep.Build(net, grid, microdeep.StrategyBalanced)
	if err != nil {
		return err
	}
	model.EnableLocalUpdate()
	model.FitParallel(samples[:cut], 8, 16, 0, cnn.NewSGD(0.02, 0.9), root.Split("fit")) // 0 workers: one per CPU
	fmt.Printf("corridor fall detection accuracy: %.1f%% on %d held-out windows\n",
		100*model.Evaluate(samples[cut:]), len(samples)-cut)

	// Alarm semantics: a detected fall window raises the nurse call.
	falls := 0
	held := samples[cut:]
	for i, class := range model.Net.PredictAll(held) {
		if held[i].Label == 1 && class == 1 {
			falls++
		}
	}
	fmt.Printf("falls caught: %d alarms raised\n", falls)

	// The registry's e15 scores the same vital-sign estimator across a
	// subject sweep; run it through the experiment engine.
	e, err := zeiot.FindExperiment("e15")
	if err != nil {
		return err
	}
	res, err := e.Run(context.Background(), zeiot.DefaultRunConfig())
	if err != nil {
		return err
	}
	fmt.Printf("registry e15: heart err %.1f bpm, breath err %.1f bpm over %.0f windows (in %s)\n",
		res.Summary["heart_err_bpm"], res.Summary["breath_err_bpm"], res.Summary["windows_ok"],
		res.Timings[zeiot.StageTotal].Round(time.Millisecond))
	return nil
}
