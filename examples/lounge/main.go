// Lounge runs the paper's first MicroDeep scenario: thermal discomfort
// detection over a 25×17-cell lounge monitored by 50 sensor nodes,
// comparing a centralized standard CNN deployment with the distributed
// MicroDeep one.
//
//	go run ./examples/lounge
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
	"zeiot/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func buildNet(s *rng.Stream) *cnn.Network {
	return cnn.NewNetwork([]int{1, 17, 25},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(3, 3),
		cnn.NewFlatten(),
		cnn.NewDense(4*5*8, 16, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(16, 2, s.Split("d2")),
	)
}

func run() error {
	root := rng.New(3)
	cfg := dataset.DefaultLoungeConfig()
	cfg.Samples = 600
	cfg.NoiseC = 0.6
	samples, err := dataset.GenerateLoungeFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		return err
	}
	train, test := samples[:450], samples[450:]
	fmt.Printf("lounge: %d snapshots of a %dx%d cell field\n", len(samples), cfg.Rows, cfg.Cols)

	// Centralized standard CNN.
	sStd := root.Split("std")
	std := buildNet(sStd)
	std.FitParallel(train, 6, 16, 0, cnn.NewSGD(0.02, 0.9), sStd.Split("fit")) // 0 workers: one per CPU
	fmt.Printf("standard CNN accuracy:  %.1f%%\n", 100*std.Evaluate(test))

	// MicroDeep over 50 nodes.
	grid := wsn.NewGrid(5, 10, 1)
	sMD := root.Split("md")
	model, err := microdeep.Build(buildNet(sMD), grid, microdeep.StrategyBalanced)
	if err != nil {
		return err
	}
	model.EnableLocalUpdate()
	model.FitParallel(train, 10, 16, 0, cnn.NewSGD(0.01, 0.9), sMD.Split("fit"))
	fmt.Printf("MicroDeep accuracy:     %.1f%%\n", 100*model.Evaluate(test))

	// Peak traffic: distributed sensing vs shipping raw readings to a sink.
	grid.ResetCounters()
	if _, err := microdeep.ChargeForward(model.Graph, model.Assign, grid); err != nil {
		return err
	}
	fwd := microdeep.Report(grid)
	grid.ResetCounters()
	if _, err := microdeep.ChargeCentralized(model.Graph, grid, grid.Live()[25]); err != nil {
		return err
	}
	central := microdeep.Report(grid)
	fmt.Printf("peak traffic/sample:    MicroDeep %d vs centralized %d scalars (%.0f%%)\n",
		fwd.Max, central.Max, 100*float64(fwd.Max)/float64(central.Max))

	// The registry's e2 is this comparison measured the paper's way —
	// normally averaged over three training seeds. A quarter-size dataset
	// and a single repeat make it a quick look instead of the full run.
	rc := zeiot.DefaultRunConfig()
	rc.SampleScale = 0.25
	rc.Repeats = 1
	e, err := zeiot.FindExperiment("e2")
	if err != nil {
		return err
	}
	res, err := e.Run(context.Background(), rc)
	if err != nil {
		return err
	}
	fmt.Printf("registry e2 (quarter-size, 1 repeat): standard %.1f%% vs MicroDeep %.1f%%, peak ratio %.2f (total %s)\n",
		100*res.Summary["acc_standard"], 100*res.Summary["acc_microdeep"],
		res.Summary["peak_ratio"], res.Timings[zeiot.StageTotal].Round(time.Millisecond))
	return nil
}
