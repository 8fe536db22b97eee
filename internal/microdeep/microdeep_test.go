package microdeep

import (
	"math"
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

func testNet(seed uint64) *cnn.Network {
	s := rng.New(seed)
	return cnn.NewNetwork([]int{1, 6, 6},
		cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("conv")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(36, 8, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(8, 2, s.Split("d2")),
	)
}

func randInput(s *rng.Stream) *tensor.Tensor {
	in := tensor.New(1, 6, 6)
	d := in.Data()
	for i := range d {
		d[i] = s.NormMeanStd(0, 1)
	}
	return in
}

func TestBuildGraphStructure(t *testing.T) {
	g, err := BuildGraph(testNet(1))
	if err != nil {
		t.Fatal(err)
	}
	// Stages: input, conv(+relu), pool, dense(+relu), dense.
	if len(g.Stages) != 5 {
		t.Fatalf("stages = %d", len(g.Stages))
	}
	kinds := []StageKind{StageInput, StageConv, StagePool, StageDense, StageDense}
	for i, k := range kinds {
		if g.Stages[i].Kind != k {
			t.Fatalf("stage %d kind = %v, want %v", i, g.Stages[i].Kind, k)
		}
	}
	if !g.Stages[1].FusedReLU || !g.Stages[3].FusedReLU || g.Stages[2].FusedReLU {
		t.Fatal("ReLU fusion wrong")
	}
	// Site counts: 36 input + 36 conv + 9 pool + 8 + 2.
	if len(g.Sites) != 36+36+9+8+2 {
		t.Fatalf("sites = %d", len(g.Sites))
	}
	// Units: 36*4 conv + 9*4 pool + 8 + 2 = 190.
	if g.NumUnits() != 36*4+9*4+8+2 {
		t.Fatalf("units = %d", g.NumUnits())
	}
	// Interior conv site has 9 deps; corner has 4 (padding).
	conv := g.Stages[1]
	corner := g.Sites[conv.Sites[0]]
	if len(corner.Deps) != 4 {
		t.Fatalf("corner conv deps = %d", len(corner.Deps))
	}
	center := g.Sites[conv.Sites[1*6+1]]
	if len(center.Deps) != 9 {
		t.Fatalf("center conv deps = %d", len(center.Deps))
	}
	// Pool sites have 4 deps; dense sites depend on all 9 pool sites.
	pool := g.Sites[g.Stages[2].Sites[0]]
	if len(pool.Deps) != 4 {
		t.Fatalf("pool deps = %d", len(pool.Deps))
	}
	d1 := g.Sites[g.Stages[3].Sites[0]]
	if len(d1.Deps) != 9 {
		t.Fatalf("dense1 deps = %d", len(d1.Deps))
	}
	d2 := g.Sites[g.Stages[4].Sites[0]]
	if len(d2.Deps) != 8 {
		t.Fatalf("dense2 deps = %d", len(d2.Deps))
	}

	// Sequences outside the supported family are errors, not graphs that
	// compute another function than the network.
	s := rng.New(2)
	for _, tc := range []struct {
		name string
		net  *cnn.Network
	}{
		{"flat input", cnn.NewNetwork([]int{4}, cnn.NewDense(4, 2, s.Split("flat")))},
		// The executor would copy the input sites without the ReLU.
		{"leading ReLU", cnn.NewNetwork([]int{1, 6, 6},
			cnn.NewReLU(), cnn.NewMaxPool2D(2, 2), cnn.NewFlatten(), cnn.NewDense(9, 2, s.Split("relu")))},
	} {
		if _, err := BuildGraph(tc.net); err == nil {
			t.Errorf("%s: BuildGraph accepted the network", tc.name)
		}
	}
}

func TestDistributedForwardEqualsCentralized(t *testing.T) {
	// The headline invariant: site-by-site distributed execution produces
	// the centralized logits up to rounding (its sums run in their own
	// order), across several random networks and inputs.
	for seed := uint64(1); seed <= 5; seed++ {
		net := testNet(seed)
		g, err := BuildGraph(net)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(g)
		s := rng.New(seed * 100)
		for trial := 0; trial < 10; trial++ {
			in := randInput(s)
			want := net.Forward(in)
			got, err := ex.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.Equal(want, got, 1e-9) {
				t.Fatalf("seed %d trial %d: centralized %v != distributed %v", seed, trial, want, got)
			}
		}
	}
}

func TestAssignCoordinatePinsInputsToSensors(t *testing.T) {
	net := testNet(2)
	g, _ := BuildGraph(net)
	w := wsn.NewGrid(6, 6, 1)
	a, err := AssignByCoordinate(g, w)
	if err != nil {
		t.Fatal(err)
	}
	// With a 6x6 sensor grid matching the 6x6 input, input site (y,x) must
	// live on node y*6+x.
	for _, sid := range g.Stages[0].Sites {
		s := g.Sites[sid]
		if a.NodeOf[sid] != s.Y*6+s.X {
			t.Fatalf("input site (%d,%d) on node %d", s.Y, s.X, a.NodeOf[sid])
		}
	}
	for _, n := range a.NodeOf {
		if n < 0 || n >= w.NumNodes() {
			t.Fatalf("site assigned to invalid node %d", n)
		}
	}
}

func TestAssignBalancedImprovesBalanceAndCorrespondence(t *testing.T) {
	net := testNet(3)
	g, _ := BuildGraph(net)
	w := wsn.NewGrid(6, 6, 1)
	coord, err := AssignByCoordinate(g, w)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := AssignBalanced(g, w, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	maxOf := func(a Assignment) int {
		m := 0
		for _, v := range UnitsPerNode(g, a, w.NumNodes()) {
			if v > m {
				m = v
			}
		}
		return m
	}
	if maxOf(bal) > maxOf(coord) {
		t.Fatalf("balanced max load %d > coordinate %d", maxOf(bal), maxOf(coord))
	}
	if LinkCorrespondence(g, bal, w) < LinkCorrespondence(g, coord, w)-0.05 {
		t.Fatalf("balanced correspondence %.3f much worse than coordinate %.3f",
			LinkCorrespondence(g, bal, w), LinkCorrespondence(g, coord, w))
	}
	// Input sites stay pinned.
	for _, sid := range g.Stages[0].Sites {
		if bal.NodeOf[sid] != coord.NodeOf[sid] {
			t.Fatal("balanced assignment moved an input site")
		}
	}
}

func chargeBoth(t *testing.T, g *Graph, a Assignment, w *wsn.Network) CostReport {
	t.Helper()
	w.ResetCounters()
	if _, err := ChargeForward(g, a, w); err != nil {
		t.Fatal(err)
	}
	if _, err := ChargeBackward(g, a, w); err != nil {
		t.Fatal(err)
	}
	return Report(w)
}

// TestFeasibleHeuristicReducesPeakCost reproduces the Fig. 10 comparison in
// miniature: an accuracy-optimal CNN with the natural coordinate assignment
// (a) versus a feasible, WSN-sized CNN with the balanced heuristic (b). The
// peak per-node cost of (b) must be substantially lower.
func TestFeasibleHeuristicReducesPeakCost(t *testing.T) {
	s := rng.New(4)
	w := wsn.NewGrid(6, 6, 1)
	optimal := cnn.NewNetwork([]int{1, 6, 6},
		cnn.NewConv2D(1, 8, 3, 3, 1, 1, s.Split("c1")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(72, 16, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(16, 2, s.Split("d2")),
	)
	feasible := testNet(4) // 4 channels, dense 8
	gOpt, err := BuildGraph(optimal)
	if err != nil {
		t.Fatal(err)
	}
	gFea, err := BuildGraph(feasible)
	if err != nil {
		t.Fatal(err)
	}
	aOpt, err := AssignByCoordinate(gOpt, w)
	if err != nil {
		t.Fatal(err)
	}
	aFea, err := AssignBalanced(gFea, w, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	optRep := chargeBoth(t, gOpt, aOpt, w)
	feaRep := chargeBoth(t, gFea, aFea, w)
	if float64(feaRep.Max) > 0.75*float64(optRep.Max) {
		t.Fatalf("feasible+heuristic max %d not well below optimal %d", feaRep.Max, optRep.Max)
	}
}

// TestBalancedCostStaysComparable guards against the balanced heuristic
// exploding traffic on a matched grid where the coordinate mapping is
// already near-optimal for communication.
func TestBalancedCostStaysComparable(t *testing.T) {
	net := testNet(4)
	g, _ := BuildGraph(net)
	w := wsn.NewGrid(6, 6, 1)
	coord, _ := AssignByCoordinate(g, w)
	bal, _ := AssignBalanced(g, w, DefaultBalanceOptions())
	coordRep := chargeBoth(t, g, coord, w)
	balRep := chargeBoth(t, g, bal, w)
	if float64(balRep.Max) > 2*float64(coordRep.Max) {
		t.Fatalf("balanced max cost %d more than doubles coordinate %d", balRep.Max, coordRep.Max)
	}
}

func TestChargeForwardPicksCheaperPlan(t *testing.T) {
	// Site 0 (width 3, node 0) feeds dense sites 1 and 2, both on node 1.
	// Raw shipping would move the 3-wide vector once (cost 3); in-network
	// aggregation moves one width-1 partial sum per consumer (cost 2), so
	// the aggregation plan must win.
	g := &Graph{
		Sites: []Site{
			{ID: 0, Stage: 0, Width: 3},
			{ID: 1, Stage: 1, Width: 1, Deps: []int{0}},
			{ID: 2, Stage: 1, Width: 1, Deps: []int{0}},
		},
		Stages: []Stage{{Kind: StageInput, Sites: []int{0}}, {Kind: StageDense, Sites: []int{1, 2}}},
	}
	w := wsn.NewGrid(1, 2, 1)
	a := Assignment{NodeOf: []int{0, 1, 1}}
	total, err := ChargeForward(g, a, w)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 {
		t.Fatalf("total scalar-hops = %d, want 2 (aggregated partial sums)", total)
	}
	if w.Node(0).TxScalars != 2 || w.Node(1).RxScalars != 2 {
		t.Fatalf("counters tx=%d rx=%d", w.Node(0).TxScalars, w.Node(1).RxScalars)
	}
}

func TestChargeForwardRawWinsForWideConsumers(t *testing.T) {
	// One width-1 dep feeding a single width-4 conv-like consumer on the
	// other node: aggregation would ship a 4-wide partial, raw ships the
	// 1-wide input. Raw must win.
	g := &Graph{
		Sites: []Site{
			{ID: 0, Stage: 0, Width: 1},
			{ID: 1, Stage: 1, Width: 4, Deps: []int{0}},
		},
		Stages: []Stage{{Kind: StageInput, Sites: []int{0}}, {Kind: StageConv, Sites: []int{1}}},
	}
	w := wsn.NewGrid(1, 2, 1)
	a := Assignment{NodeOf: []int{0, 1}}
	total, err := ChargeForward(g, a, w)
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("total scalar-hops = %d, want 1 (raw input shipping)", total)
	}
}

func TestChargeSameNodeIsFree(t *testing.T) {
	net := testNet(5)
	g, _ := BuildGraph(net)
	// Single-node network: everything co-located, zero traffic.
	w := wsn.NewGrid(1, 1, 1)
	a, err := AssignByCoordinate(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChargeForward(g, a, w); err != nil {
		t.Fatal(err)
	}
	if w.MaxCost() != 0 {
		t.Fatalf("single-node deployment charged %d", w.MaxCost())
	}
}

func TestCentralizedBaselineConcentratesTraffic(t *testing.T) {
	// The §IV.C "peak traffic" claim holds when the CNN reduces data as it
	// flows (pooling shrinks the field faster than channels grow): the
	// sink of a ship-everything deployment then carries far more traffic
	// than any node of the distributed one. Use a 12×12 field with an
	// aggressively pooling CNN, as in the lounge experiment's geometry.
	s := rng.New(6)
	net := cnn.NewNetwork([]int{1, 12, 12},
		cnn.NewConv2D(1, 2, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(4, 4),
		cnn.NewFlatten(),
		cnn.NewDense(18, 4, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(4, 2, s.Split("d2")),
	)
	g, err := BuildGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	w := wsn.NewGrid(12, 12, 1)
	if _, err := ChargeCentralized(g, w, 0); err != nil {
		t.Fatal(err)
	}
	central := Report(w)

	w.ResetCounters()
	bal, err := AssignBalanced(g, w, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChargeForward(g, bal, w); err != nil {
		t.Fatal(err)
	}
	dist := Report(w)
	if dist.Max >= central.Max {
		t.Fatalf("distributed max %d >= centralized max %d", dist.Max, central.Max)
	}
}

func TestModelBuildStrategies(t *testing.T) {
	w := wsn.NewGrid(6, 6, 1)
	for _, strat := range []Strategy{StrategyCoordinate, StrategyBalanced} {
		m, err := Build(testNet(7), w, strat)
		if err != nil {
			t.Fatalf("strategy %d: %v", strat, err)
		}
		if m.Graph.NumSites() == 0 {
			t.Fatal("empty graph")
		}
	}
	if _, err := Build(testNet(7), w, Strategy(99)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestLocalUpdateTrainingDivergesReplicas(t *testing.T) {
	s := rng.New(2025)
	var samples []cnn.Sample
	for i := 0; i < 120; i++ {
		in := tensor.New(1, 6, 6)
		label := i % 2
		x := s.Intn(3)
		if label == 1 {
			x += 3
		}
		in.Set(1, 0, s.Intn(6), x)
		samples = append(samples, cnn.Sample{Input: in, Label: label})
	}
	w := wsn.NewGrid(6, 6, 1)
	m, err := Build(testNet(8), w, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLocalUpdate()
	if len(m.replicas) == 0 {
		t.Fatal("no replicas created")
	}
	if m.ReplicaDivergence() > 1e-12 {
		t.Fatalf("replicas diverged before training: %v", m.ReplicaDivergence())
	}
	opt := cnn.NewSGD(0.05, 0.9)
	m.FitParallel(samples, 10, 8, 1, opt, s.Split("train"))
	if m.ReplicaDivergence() < 1e-9 {
		t.Fatalf("independent updates did not diverge replicas: %v", m.ReplicaDivergence())
	}
	if acc := m.Evaluate(samples); acc < 0.85 {
		t.Fatalf("local-update training accuracy = %.3f", acc)
	}
}

func TestDistributedForwardMatchesInReplicaMode(t *testing.T) {
	s := rng.New(11)
	w := wsn.NewGrid(6, 6, 1)
	m, err := Build(testNet(9), w, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLocalUpdate()
	// Perturb one replica so replicas genuinely differ.
	var samples []cnn.Sample
	for i := 0; i < 40; i++ {
		samples = append(samples, cnn.Sample{Input: randInput(s), Label: i % 2})
	}
	m.FitParallel(samples, 3, 8, 1, cnn.NewSGD(0.05, 0.9), s.Split("t"))
	for trial := 0; trial < 5; trial++ {
		in := randInput(s)
		want := m.Net.Forward(in) // hooks make this the replica-aware result
		got, err := m.ForwardDistributed(in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, got, 1e-9) {
			t.Fatalf("replica-mode distributed forward diverged: %v vs %v", want, got)
		}
	}
}

// TestNewExecutorUsesReplicas checks that an executor built straight from
// the graph of a local-update model, not through DistributedExecutor,
// computes with the per-position replica kernels too.
func TestNewExecutorUsesReplicas(t *testing.T) {
	s := rng.New(12)
	m, err := Build(testNet(9), wsn.NewGrid(6, 6, 1), StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableLocalUpdate()
	var samples []cnn.Sample
	for i := 0; i < 40; i++ {
		samples = append(samples, cnn.Sample{Input: randInput(s), Label: i % 2})
	}
	m.FitParallel(samples, 3, 8, 1, cnn.NewSGD(0.05, 0.9), s.Split("t"))
	ex := NewExecutor(m.Graph)
	for trial := 0; trial < 5; trial++ {
		in := randInput(s)
		want := m.Net.Forward(in)
		got, err := ex.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, got, 1e-9) {
			t.Fatalf("NewExecutor forward diverged from the replica net: %v vs %v", want, got)
		}
	}
}

func TestCostPerSampleSyncVsLocal(t *testing.T) {
	w := wsn.NewGrid(6, 6, 1)
	m, err := Build(testNet(10), w, StrategyBalanced)
	if err != nil {
		t.Fatal(err)
	}
	syncRep, err := m.CostPerSample(true)
	if err != nil {
		t.Fatal(err)
	}
	localRep, err := m.CostPerSample(false)
	if err != nil {
		t.Fatal(err)
	}
	if localRep.Total >= syncRep.Total {
		t.Fatalf("local total %d >= sync total %d", localRep.Total, syncRep.Total)
	}
	if localRep.Max > syncRep.Max {
		t.Fatalf("local max %d > sync max %d", localRep.Max, syncRep.Max)
	}
}

func TestAssignmentAvoidsFailedNodes(t *testing.T) {
	net := testNet(12)
	g, _ := BuildGraph(net)
	w := wsn.NewGrid(6, 6, 1)
	w.Fail(14)
	w.Fail(15)
	for _, build := range []func() (Assignment, error){
		func() (Assignment, error) { return AssignByCoordinate(g, w) },
		func() (Assignment, error) { return AssignBalanced(g, w, DefaultBalanceOptions()) },
	} {
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for sid, n := range a.NodeOf {
			if n == 14 || n == 15 {
				t.Fatalf("site %d assigned to failed node %d", sid, n)
			}
		}
	}
}

func TestUnitsPerNodeTotal(t *testing.T) {
	net := testNet(13)
	g, _ := BuildGraph(net)
	w := wsn.NewGrid(6, 6, 1)
	a, _ := AssignBalanced(g, w, DefaultBalanceOptions())
	sum := 0
	for _, v := range UnitsPerNode(g, a, w.NumNodes()) {
		sum += v
	}
	if sum != g.NumUnits() {
		t.Fatalf("units per node sum %d != total units %d", sum, g.NumUnits())
	}
}

func TestLinkCorrespondenceBounds(t *testing.T) {
	net := testNet(14)
	g, _ := BuildGraph(net)
	w := wsn.NewGrid(6, 6, 1)
	a, _ := AssignBalanced(g, w, DefaultBalanceOptions())
	lc := LinkCorrespondence(g, a, w)
	if lc < 0 || lc > 1 || math.IsNaN(lc) {
		t.Fatalf("correspondence = %v", lc)
	}
	// Single node: trivially 1.
	w1 := wsn.NewGrid(1, 1, 1)
	a1, _ := AssignByCoordinate(g, w1)
	if LinkCorrespondence(g, a1, w1) != 1 {
		t.Fatal("single-node correspondence != 1")
	}
}

func TestExecutorDeadNodesDegradeGracefully(t *testing.T) {
	net := testNet(21)
	g, err := BuildGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	w := wsn.NewGrid(6, 6, 1)
	a, err := AssignBalanced(g, w, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(77)
	in := randInput(s)

	healthy := NewExecutor(g)
	healthy.Assign = &a
	healthy.DeadNodes = map[int]bool{}
	got, err := healthy.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := net.Forward(in)
	if !tensor.Equal(want, got, 1e-9) {
		t.Fatal("empty dead set changed the output")
	}

	broken := NewExecutor(g)
	broken.Assign = &a
	broken.DeadNodes = map[int]bool{0: true, 7: true, 14: true}
	out, err := broken.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.Equal(want, out, 1e-9) {
		t.Fatal("killing three nodes left the output bit-identical")
	}
	for _, v := range out.Data() {
		if v != v { // NaN check
			t.Fatal("dead nodes produced NaN output")
		}
	}
}

// TestMaxPoolSpecialValues runs windows that hold NaN, ±Inf and ±0 through
// a max pool, alone and followed by a ReLU, and requires the distributed
// forward's bits to equal the centralized pass's: the builtin max
// propagates a NaN and puts +0 above −0, and the ReLU maps −0 and a
// negative NaN to +0.
func TestMaxPoolSpecialValues(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	cells := []float64{math.NaN(), negNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -1, 2}
	for _, relu := range []bool{false, true} {
		layers := []cnn.Layer{cnn.NewMaxPool2D(2, 2)}
		if relu {
			layers = append(layers, cnn.NewReLU())
		}
		net := cnn.NewNetwork([]int{1, 4, 4}, append(layers, cnn.NewFlatten())...)
		g, err := BuildGraph(net)
		if err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(g)
		s := rng.New(43)
		for trial := 0; trial < 200; trial++ {
			in := tensor.New(1, 4, 4)
			for i := range in.Data() {
				in.Data()[i] = cells[s.Intn(len(cells))]
			}
			want := net.Forward(in).Data()
			got, err := ex.Forward(in)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range want {
				if math.Float64bits(w) != math.Float64bits(got.Data()[i]) {
					t.Fatalf("relu=%v input %v: output %d is %v (%#x), centralized %v (%#x)",
						relu, in.Data(), i, got.Data()[i], math.Float64bits(got.Data()[i]), w, math.Float64bits(w))
				}
			}
		}
	}
}

func TestGossipReducesDivergence(t *testing.T) {
	s := rng.New(43)
	var samples []cnn.Sample
	for i := 0; i < 120; i++ {
		in := tensor.New(1, 6, 6)
		label := i % 2
		x := s.Intn(3)
		if label == 1 {
			x += 3
		}
		in.Set(1, 0, s.Intn(6), x)
		samples = append(samples, cnn.Sample{Input: in, Label: label})
	}
	w := wsn.NewGrid(6, 6, 1)
	run := func(gossip int) float64 {
		m, err := Build(testNet(44), w, StrategyBalanced)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableLocalUpdate()
		m.SetGossip(gossip)
		m.FitParallel(samples, 8, 8, 1, cnn.NewSGD(0.05, 0.9), rng.New(45))
		return m.ReplicaDivergence()
	}
	pure := run(0)
	gossiped := run(2)
	if gossiped >= pure {
		t.Fatalf("gossip divergence %.4f not below pure local %.4f", gossiped, pure)
	}
	if gossiped <= 0 {
		t.Fatal("gossip fully collapsed divergence (suspicious)")
	}
}

// LinkCorrespondence returns the fraction of CNN dependency edges whose
// endpoints sit on the same node or on directly linked nodes — the quantity
// the paper's heuristic maximizes, and the measure the assignment tests
// judge strategies by.
func LinkCorrespondence(g *Graph, a Assignment, w *wsn.Network) float64 {
	total, good := 0, 0
	for _, s := range g.Sites {
		for _, dep := range s.Deps {
			total++
			u, v := a.NodeOf[dep], a.NodeOf[s.ID]
			if u == v || w.Linked(u, v) {
				good++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(good) / float64(total)
}
