// Quickstart: deploy a small CNN over a simulated sensor grid with
// MicroDeep, train it on a toy spatial task, and inspect accuracy and
// per-node communication cost.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"zeiot"
	"zeiot/internal/cnn"
	"zeiot/internal/microdeep"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	root := rng.New(7)

	// 1. A toy task: is the bright blob in the left or right half of an
	// 8×8 sensor field?
	var samples []cnn.Sample
	for i := 0; i < 400; i++ {
		in := tensor.New(1, 8, 8)
		label := i % 2
		x := root.Intn(4)
		if label == 1 {
			x += 4
		}
		in.Set(1, 0, root.Intn(8), x)
		for j := 0; j < 4; j++ {
			in.Set(0.3*root.Norm(), 0, root.Intn(8), root.Intn(8))
		}
		samples = append(samples, cnn.Sample{Input: in, Label: label})
	}
	train, test := samples[:300], samples[300:]

	// 2. A CNN sized for tiny IoT devices.
	s := root.Split("net")
	net := cnn.NewNetwork([]int{1, 8, 8},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("conv")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(4*4*4, 2, s.Split("dense")),
	)

	// 3. An 8×8 sensor grid, one node per sensing cell, and a MicroDeep
	// deployment using the balanced heuristic assignment.
	grid := wsn.NewGrid(8, 8, 1)
	model, err := microdeep.Build(net, grid, microdeep.StrategyBalanced)
	if err != nil {
		return err
	}
	fmt.Printf("unit graph: %d sites, %d units over %d nodes\n",
		model.Graph.NumSites(), model.Graph.NumUnits(), grid.NumNodes())

	// 4. Local weight updates: no kernel synchronization traffic.
	model.EnableLocalUpdate()
	model.FitParallel(train, 6, 16, 0, cnn.NewSGD(0.05, 0.9), root.Split("fit")) // 0 workers: one per CPU
	fmt.Printf("test accuracy: %.1f%%\n", 100*model.Evaluate(test))

	// 5. The distributed forward pass agrees with the centralized one up
	// to rounding: it sums the same terms in its own order.
	out, err := model.ForwardDistributed(test[0].Input)
	if err != nil {
		return err
	}
	central := model.Net.Forward(test[0].Input)
	fmt.Printf("distributed == centralized: %v\n", tensor.Equal(out, central, 1e-9))

	// 6. Communication cost per sample (the paper's Fig. 10 metric).
	cost, err := model.CostPerSample(false)
	if err != nil {
		return err
	}
	fmt.Printf("comm cost/sample: max %d, mean %.1f, total %d scalars\n",
		cost.Max, cost.Mean, cost.Total)

	// 7. The paper's artifacts run through the same engine as
	// cmd/zeiotbench: pick one from the registry and run it under an
	// explicit per-run config.
	e, err := zeiot.FindExperiment("e7")
	if err != nil {
		return err
	}
	res, err := e.Run(context.Background(), zeiot.DefaultRunConfig())
	if err != nil {
		return err
	}
	fmt.Printf("registry %s: wifi/backscatter energy ratio %.0fx, usable range %.0f m (in %s)\n",
		res.ID, res.Summary["wifi_over_backscatter"], res.Summary["usable_range_m"],
		res.Timings[zeiot.StageTotal].Round(time.Millisecond))
	return nil
}
