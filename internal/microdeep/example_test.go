package microdeep_test

import (
	"fmt"

	"zeiot/internal/cnn"
	"zeiot/internal/microdeep"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// Example deploys a small CNN over a 4×4 sensor grid, verifies the
// distributed forward pass matches the centralized one, and reads the
// per-sample communication cost.
func Example() {
	s := rng.New(1)
	net := cnn.NewNetwork([]int{1, 4, 4},
		cnn.NewConv2D(1, 2, 3, 3, 1, 1, s.Split("conv")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(8, 2, s.Split("dense")),
	)
	grid := wsn.NewGrid(4, 4, 1)
	model, err := microdeep.Build(net, grid, microdeep.StrategyBalanced)
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	in := tensor.New(1, 4, 4)
	in.Set(1, 0, 1, 2)
	central := model.Net.Forward(in)
	distributed, err := model.ForwardDistributed(in)
	if err != nil {
		fmt.Println("forward:", err)
		return
	}
	fmt.Println("equal to 1e-9:", tensor.Equal(central, distributed, 1e-9))

	cost, err := model.CostPerSample(false)
	if err != nil {
		fmt.Println("cost:", err)
		return
	}
	fmt.Println("total cost positive:", cost.Total > 0)
	// Output:
	// equal to 1e-9: true
	// total cost positive: true
}

// ExamplePlan turns a deployment into link-level transfers, the input for
// the TDMA scheduler in internal/schedule.
func ExamplePlan() {
	s := rng.New(2)
	net := cnn.NewNetwork([]int{1, 4, 4},
		cnn.NewConv2D(1, 2, 3, 3, 1, 1, s.Split("conv")),
		cnn.NewFlatten(),
		cnn.NewDense(32, 2, s.Split("dense")),
	)
	grid := wsn.NewGrid(4, 4, 1)
	model, err := microdeep.Build(net, grid, microdeep.StrategyCoordinate)
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	plan, err := microdeep.Plan(model.Graph, model.Assign, grid)
	if err != nil {
		fmt.Println("plan:", err)
		return
	}
	allLinks := true
	for _, tr := range plan {
		if !grid.Linked(tr.From, tr.To) {
			allLinks = false
		}
	}
	fmt.Println("transfers over real links:", allLinks)
	// Output:
	// transfers over real links: true
}
