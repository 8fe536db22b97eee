// Designer walks the paper's §V design-support loop end to end: from a
// floor plan with obstacle walls, derive the device network, deploy a
// distributed CNN on it, generate the collision-free TDMA collection
// schedule, and check whether the required collection cycle is feasible on
// harvested energy alone.
//
//	go run ./examples/designer
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"zeiot"
	"zeiot/internal/cnn"
	"zeiot/internal/geom"
	"zeiot/internal/microdeep"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
	"zeiot/internal/schedule"
	"zeiot/internal/wsn"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run walks the design loop, printing each step's result to out.
func run(out io.Writer) error {
	// 1. Floor plan: an 8×6 grid of sensing positions and one partition
	// wall with a doorway.
	var positions []geom.Point
	for r := 0; r < 6; r++ {
		for c := 0; c < 8; c++ {
			positions = append(positions, geom.Point{X: float64(c) * 2, Y: float64(r) * 2})
		}
	}
	plan := wsn.DefaultRadioPlan()
	plan.Walls = []wsn.Wall{
		{A: geom.Point{X: 7, Y: -1}, B: geom.Point{X: 7, Y: 6.5}, LossDB: 25}, // partition
		// Doorway gap between y=6.5 and y=11.
	}
	net := wsn.NewFromRadioPlan(positions, plan)
	fmt.Fprintf(out, "floor plan: %d nodes, connected=%v\n", net.NumNodes(), net.Connected())

	// 2. Deploy a CNN over the field with the balanced heuristic.
	s := rng.New(1)
	cnnNet := cnn.NewNetwork([]int{1, 6, 8},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(4*3*4, 8, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(8, 2, s.Split("d2")),
	)
	model, err := microdeep.Build(cnnNet, net, microdeep.StrategyBalanced)
	if err != nil {
		return err
	}
	cost, err := model.CostPerSample(false)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "deployment: %d units, max %d scalars/sample on the busiest node\n",
		model.Graph.NumUnits(), cost.Max)

	// 3. Generate the TDMA collection schedule (2 channels) and validate.
	transfers, err := microdeep.Plan(model.Graph, model.Assign, net)
	if err != nil {
		return err
	}
	opts := schedule.Options{Channels: 2, InterferenceHops: 1}
	sched, err := schedule.Build(transfers, net, opts)
	if err != nil {
		return err
	}
	if err := sched.Validate(transfers, net, opts); err != nil {
		return err
	}
	fmt.Fprintf(out, "schedule: %d transfers in %d slots on %d channels (collision-free: validated)\n",
		len(sched.Entries), sched.Slots, sched.Channels)

	// 4. Feasibility of the required collection cycle.
	const slotSec = 0.004 // 4 ms slots (ZigBee-class frames)
	for _, requiredHz := range []float64{0.2, 1, 5} {
		rep := sched.Feasibility(slotSec, requiredHz)
		fmt.Fprintf(out, "cycle %4.1f Hz: round %.0f ms, max rate %.1f Hz, feasible=%v\n",
			requiredHz, rep.RoundSec*1000, rep.MaxRateHz, rep.CycleOK)
	}

	// 5. Energy check: can the busiest node sustain 1 Hz on 100 µW
	// harvested power, per radio technology?
	const bitsPerScalar = 32
	fmt.Fprintln(out, "energy-sustainable rate at the busiest node (100 µW harvest):")
	for _, r := range radio.StandardRadios() {
		perSampleJ := float64(cost.Max*bitsPerScalar) * r.JoulesPerBit()
		fmt.Fprintf(out, "  %-12s %8.2f Hz\n", r.Tech, 100e-6/perSampleJ)
	}

	// The registry's e11 runs the same feasibility loop on the paper's
	// battery-free deployment; run it through the experiment engine.
	e, err := zeiot.FindExperiment("e11")
	if err != nil {
		return err
	}
	res, err := e.Run(context.Background(), zeiot.DefaultRunConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "registry e11: backscatter sustains %.2f Hz (%.0fx over WiFi) (in %s)\n",
		res.Summary["rate_backscatter"], res.Summary["backscatter_speedup"],
		res.Timings[zeiot.StageTotal].Round(time.Millisecond))
	return nil
}
