// Falldetect runs the paper's second MicroDeep scenario end to end:
// synthetic film-type IR-sensor gait streams, 2-second windows, and a
// 1-conv/1-pool/2-FC CNN distributed over the sensor array, detecting
// falls of (simulated) elderly subjects.
//
//	go run ./examples/falldetect
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
	"zeiot/internal/ml"
	"zeiot/internal/rng"
	"zeiot/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	root := rng.New(11)
	cfg := dataset.DefaultGaitConfig()
	cfg.Streams = 40
	cfg.NoiseLevel = 0.4
	streams, err := dataset.GenerateGaitStreamsFrom(cfg, rng.New(cfg.Seed))
	if err != nil {
		return err
	}
	falls := 0
	for _, gs := range streams {
		if gs.FallAt >= 0 {
			falls++
		}
	}
	fmt.Printf("recorded %d streams (%d with falls), %d frames each\n",
		len(streams), falls, cfg.FramesPerStream)

	samples := dataset.BalancedWindows(cfg, streams, 1.0, root.Split("balance"))
	cut := len(samples) * 3 / 4
	train, test := samples[:cut], samples[cut:]
	fmt.Printf("windows: %d train, %d test (%d-frame, %dx%d pixels)\n",
		len(train), len(test), cfg.WindowFrames, cfg.Rows, cfg.Cols)

	// The paper's CNN: one conv, one pool, two fully-connected layers,
	// deployed over the IR array itself.
	s := root.Split("net")
	net := cnn.NewNetwork([]int{cfg.WindowFrames, cfg.Rows, cfg.Cols},
		cnn.NewConv2D(cfg.WindowFrames, 6, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(6*4*4, 16, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(16, 2, s.Split("d2")),
	)
	grid := wsn.NewGrid(cfg.Rows, cfg.Cols, 0.3)
	model, err := microdeep.Build(net, grid, microdeep.StrategyBalanced)
	if err != nil {
		return err
	}
	model.EnableLocalUpdate()
	model.FitParallel(train, 8, 16, 0, cnn.NewSGD(0.02, 0.9), root.Split("fit")) // 0 workers: one per CPU

	cm := ml.NewConfusionMatrix(2)
	for i, class := range model.Net.PredictAll(test) {
		cm.Add(test[i].Label, class)
	}
	fmt.Printf("fall detection accuracy: %.1f%%  (fall F1 %.3f)\n",
		100*cm.Accuracy(), cm.F1(1))

	cost, err := model.CostPerSample(false)
	if err != nil {
		return err
	}
	fmt.Printf("per-window comm cost: max %d scalars on one node, %d total\n",
		cost.Max, cost.Total)

	// The registry's e1 is this scenario measured the paper's way (optimal
	// vs feasible assignment, Fig. 10). SampleScale 0.5 halves the gait
	// streams for a quick look; scale 1 reproduces the paper run.
	rc := zeiot.DefaultRunConfig()
	rc.SampleScale = 0.5
	e, err := zeiot.FindExperiment("e1")
	if err != nil {
		return err
	}
	res, err := e.Run(context.Background(), rc)
	if err != nil {
		return err
	}
	fmt.Printf("registry e1 (half-size): optimal %.1f%% vs feasible %.1f%%, max cost %.0f vs %.0f (train %s)\n",
		100*res.Summary["acc_optimal"], 100*res.Summary["acc_feasible"],
		res.Summary["max_cost_opt"], res.Summary["max_cost_fea"],
		res.Timings[zeiot.StageTrain].Round(time.Millisecond))
	return nil
}
