package microdeep

import (
	"runtime"
	"slices"
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/geom"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// lossyExecutor builds a (graph, assignment, network) triple and an executor
// wired for lossy execution with the given fault config and retry policy.
func lossyExecutor(t *testing.T, cfg wsn.FaultConfig, rp wsn.RetryPolicy) (*Executor, *Graph, func(*tensor.Tensor) *tensor.Tensor) {
	t.Helper()
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
	ex := NewExecutor(g)
	ex.Assign = &a
	ex.Net = w
	ex.Faults = wsn.NewLinkFaultModel(cfg)
	ex.Retry = rp
	return ex, g, net.Forward
}

// TestExecutorLossyZeroDropBitIdentical requires the lossy path with a
// zero-loss fault model to reproduce the fault-free distributed forward
// pass bit for bit (and the centralized pass to float tolerance): the
// transport runs — transfers are counted and charged — but nothing is
// lost, so the numbers cannot move.
func TestExecutorLossyZeroDropBitIdentical(t *testing.T) {
	ex, g, central := lossyExecutor(t, wsn.FaultConfig{Seed: 1}, wsn.DefaultRetryPolicy())
	plain := NewExecutor(g)
	s := rng.New(77)
	for i := 0; i < 5; i++ {
		in := randInput(s)
		got, err := ex.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(want, got, 0) {
			t.Fatalf("sample %d: zero-loss lossy forward drifted from the fault-free executor", i)
		}
		if !tensor.Equal(central(in), got, 1e-9) {
			t.Fatalf("sample %d: zero-loss lossy forward drifted from centralized", i)
		}
	}
	if ex.Stats.Transfers == 0 {
		t.Fatal("lossy executor counted no transfers")
	}
	if ex.Stats.Lost != 0 || ex.Stats.Retries != 0 {
		t.Fatalf("zero-loss run recorded %d losses, %d retries", ex.Stats.Lost, ex.Stats.Retries)
	}
	if ex.Net.MaxCost() == 0 {
		t.Fatal("lossy executor charged no communication")
	}
}

// TestExecutorLossyTotalLossDegradesGracefully drops every link-level
// attempt with retries off: the pass must still complete — consuming sites
// compute on zero inputs — with every transfer reported lost and finite
// outputs.
func TestExecutorLossyTotalLossDegradesGracefully(t *testing.T) {
	ex, _, central := lossyExecutor(t, wsn.FaultConfig{Seed: 1, DropProb: 1}, wsn.RetryPolicy{})
	in := randInput(rng.New(77))
	out, err := ex.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Transfers == 0 || ex.Stats.Lost != ex.Stats.Transfers {
		t.Fatalf("stats %+v: want every transfer lost", ex.Stats)
	}
	for _, v := range out.Data() {
		if v != v {
			t.Fatal("total loss produced NaN output")
		}
	}
	if tensor.Equal(central(in), out, 1e-9) {
		t.Fatal("losing every transfer left the output identical to centralized")
	}
}

// TestExecutorLossyDeterministic runs the same lossy evaluation twice from
// fresh models, executors, and fault models: outputs, delivery stats, and
// charged counters must match exactly.
func TestExecutorLossyDeterministic(t *testing.T) {
	run := func() ([]*tensor.Tensor, DeliveryStats, int) {
		cfg := wsn.FaultConfig{Seed: 9, Burst: wsn.GilbertElliottFor(0.2)}
		ex, _, _ := lossyExecutor(t, cfg, wsn.RetryPolicy{MaxRetries: 2, BackoffBase: 1, BackoffCap: 8})
		s := rng.New(123)
		var outs []*tensor.Tensor
		for i := 0; i < 10; i++ {
			out, err := ex.Forward(randInput(s))
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
		return outs, ex.Stats, ex.Net.MaxCost()
	}
	outA, statsA, costA := run()
	outB, statsB, costB := run()
	if statsA != statsB {
		t.Fatalf("delivery stats differ across identical runs: %+v vs %+v", statsA, statsB)
	}
	if costA != costB {
		t.Fatalf("charged peak cost differs across identical runs: %d vs %d", costA, costB)
	}
	if statsA.Lost == 0 || statsA.Retries == 0 {
		t.Fatalf("stats %+v: the 20%% burst channel should lose and retry", statsA)
	}
	for i := range outA {
		if !tensor.Equal(outA[i], outB[i], 0) {
			t.Fatalf("sample %d output differs across identical runs", i)
		}
	}
}

// TestPlanCachePerGraphLifetime is the regression test for the old
// package-global plan cache, which keyed entries on raw *Graph /
// *wsn.Network pointers: it pinned every planned graph forever, and a freed
// object's reused address could serve a stale plan. The memo now lives on
// the Graph and holds the network it planned on, so a fresh network —
// however the allocator places it — always misses, and each graph's memo
// is invisible to every other graph.
func TestPlanCachePerGraphLifetime(t *testing.T) {
	g, err := BuildGraph(testNet(31))
	if err != nil {
		t.Fatal(err)
	}
	var (
		w *wsn.Network
		a Assignment
	)
	for i := 0; i < 8; i++ {
		// Each iteration collects the networks the memo no longer holds;
		// a reused allocation address must not resurrect an earlier
		// iteration's plan.
		runtime.GC()
		w = wsn.NewGrid(6, 6, 1)
		if a, err = AssignBalanced(g, w, DefaultBalanceOptions()); err != nil {
			t.Fatal(err)
		}
		if _, err := Plan(g, a, w); err != nil {
			t.Fatal(err)
		}
		if hits, misses := g.PlanCacheStats(); hits != 0 || misses != uint64(i+1) {
			t.Fatalf("iteration %d: %d hits, %d misses; want 0 and %d (a fresh network must miss)", i, hits, misses, i+1)
		}
	}

	// A second graph with identical structure keeps a fully separate memo.
	g2, err := BuildGraph(testNet(31))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := AssignBalanced(g2, w, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(g2, a2, w); err != nil {
		t.Fatal(err)
	}
	if hits, misses := g2.PlanCacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("second graph: %d hits, %d misses; want 0 and 1", hits, misses)
	}
	if _, err := Plan(g, a, w); err != nil {
		t.Fatal(err)
	}
	if hits, misses := g.PlanCacheStats(); hits != 1 || misses != 8 {
		t.Fatalf("planning on the second graph disturbed the first graph's memo: %d hits, %d misses; want 1 and 8", hits, misses)
	}
}

// TestPlanCacheDistinguishesTopologies plans one graph on two networks with
// identical node layout but different connectivity: each topology misses,
// the two plans differ, and every replay matches a cold recompute.
func TestPlanCacheDistinguishesTopologies(t *testing.T) {
	g, err := BuildGraph(testNet(31))
	if err != nil {
		t.Fatal(err)
	}
	wide := wsn.NewGrid(6, 6, 1) // range 1.5: axial and diagonal links
	// Same node layout under a radio plan whose link budget closes at
	// 1 m (−40 dBm axial) but not √2 m (−44.2 dBm diagonal): axial-only.
	var pos []geom.Point
	for _, nd := range wide.Nodes() {
		pos = append(pos, nd.Pos)
	}
	plan := wsn.DefaultRadioPlan()
	plan.SensitivityDBm = -52
	plan.FadeMarginDB = 10
	narrow := wsn.NewFromRadioPlan(pos, plan)
	if narrow.Linked(0, 1) == false || narrow.Linked(0, 7) {
		t.Fatal("radio plan did not produce the axial-only topology")
	}
	a, err := AssignBalanced(g, wide, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	cold := func(w *wsn.Network) []Transfer {
		p, err := computePlan(g, a, w, &bitset{}, &bitset{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	coldWide, coldNarrow := cold(wide), cold(narrow)
	if slices.Equal(coldWide, coldNarrow) {
		t.Fatal("the two topologies yield the same plan; the test cannot tell them apart")
	}
	for i, st := range []struct {
		name string
		w    *wsn.Network
		want []Transfer
	}{
		{"wide", wide, coldWide},
		{"narrow", narrow, coldNarrow},
		{"wide again", wide, coldWide},
	} {
		got, err := Plan(g, a, st.w)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if !slices.Equal(got, st.want) {
			t.Fatalf("%s: memoized plan (%d transfers) differs from a cold one (%d)", st.name, len(got), len(st.want))
		}
		if hits, misses := g.PlanCacheStats(); hits != 0 || misses != uint64(i+1) {
			t.Fatalf("%s: %d hits, %d misses; want 0 and %d (each topology switch must miss)", st.name, hits, misses, i+1)
		}
	}
}

// TestExecutorLossyPaddingOnlySites runs the lossy path over a conv whose
// padding is wider than its kernel, so its border sites read no input at
// all: with every transfer dropped the pass must still complete, and with
// none dropped it must equal the fault-free executor.
func TestExecutorLossyPaddingOnlySites(t *testing.T) {
	s := rng.New(5)
	net := cnn.NewNetwork([]int{1, 4, 4},
		cnn.NewConv2D(1, 2, 1, 1, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewFlatten(),
		cnn.NewDense(2*6*6, 2, s.Split("d")),
	)
	g, err := BuildGraph(net)
	if err != nil {
		t.Fatal(err)
	}
	w := wsn.NewGrid(3, 3, 1)
	a, err := AssignBalanced(g, w, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 4, 4)
	for i := range in.Data() {
		in.Data()[i] = s.NormMeanStd(0, 1)
	}
	want, err := NewExecutor(g).Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, drop := range []float64{0, 1} {
		ex := NewExecutor(g)
		ex.Assign, ex.Net, ex.Retry = &a, w, wsn.RetryPolicy{}
		ex.Faults = wsn.NewLinkFaultModel(wsn.FaultConfig{Seed: 1, DropProb: drop})
		got, err := ex.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		if drop == 0 && !tensor.Equal(want, got, 0) {
			t.Fatalf("zero-loss lossy forward %v, fault-free %v", got, want)
		}
	}
}
