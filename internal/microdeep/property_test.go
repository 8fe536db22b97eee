package microdeep

import (
	"testing"
	"testing/quick"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// randomNet builds a random small CNN from three geometry bytes: input
// size 5..8, conv channels 2..5, dense width 4..11.
func randomNet(t *testing.T, a, b, c uint8) (*cnn.Network, int) {
	t.Helper()
	size := 5 + int(a%4)
	channels := 2 + int(b%4)
	hidden := 4 + int(c%8)
	s := rng.New(uint64(a)<<16 | uint64(b)<<8 | uint64(c))
	half := size / 2
	net := cnn.NewNetwork([]int{1, size, size},
		cnn.NewConv2D(1, channels, 3, 3, 1, 1, s.Split("c")),
		cnn.NewReLU(),
		cnn.NewMaxPool2D(2, 2),
		cnn.NewFlatten(),
		cnn.NewDense(channels*half*half, hidden, s.Split("d1")),
		cnn.NewReLU(),
		cnn.NewDense(hidden, 2, s.Split("d2")),
	)
	return net, size
}

// TestPropertyDistributedEquivalence: for random CNN geometries and random
// inputs, the site-by-site distributed executor matches the centralized
// forward pass to 1e-9 (its sums run in their own order).
func TestPropertyDistributedEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(a, b, c uint8) bool {
		net, size := randomNet(t, a, b, c)
		g, err := BuildGraph(net)
		if err != nil {
			t.Logf("BuildGraph: %v", err)
			return false
		}
		ex := NewExecutor(g)
		s := rng.New(uint64(a) + uint64(b)*257 + uint64(c)*65537)
		in := tensor.New(1, size, size)
		d := in.Data()
		for i := range d {
			d[i] = s.NormMeanStd(0, 1)
		}
		want := net.Forward(in)
		got, err := ex.Forward(in)
		if err != nil {
			t.Logf("Forward: %v", err)
			return false
		}
		return tensor.Equal(want, got, 1e-9)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAssignmentInvariants: assignments place every site on a live
// node, pin input sites to their sensors, and conserve the unit count.
func TestPropertyAssignmentInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(a, b, c, gridSel uint8) bool {
		net, _ := randomNet(t, a, b, c)
		g, err := BuildGraph(net)
		if err != nil {
			return false
		}
		rows := 3 + int(gridSel%4)
		cols := 3 + int(gridSel/4%4)
		w := wsn.NewGrid(rows, cols, 1)
		for _, strat := range []Strategy{StrategyCoordinate, StrategyBalanced} {
			var asg Assignment
			switch strat {
			case StrategyCoordinate:
				asg, err = AssignByCoordinate(g, w)
			case StrategyBalanced:
				asg, err = AssignBalanced(g, w, DefaultBalanceOptions())
			}
			if err != nil {
				t.Logf("assign: %v", err)
				return false
			}
			if len(asg.NodeOf) != len(g.Sites) {
				return false
			}
			for _, n := range asg.NodeOf {
				if n < 0 || n >= w.NumNodes() || w.Node(n).Failed {
					return false
				}
			}
			sum := 0
			for _, u := range UnitsPerNode(g, asg, w.NumNodes()) {
				if u < 0 {
					return false
				}
				sum += u
			}
			if sum != g.NumUnits() {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPlanTransfersAreLinks: every planned transfer runs over an
// existing one-hop link, and applying the plan conserves scalars (total tx
// equals total rx).
func TestPropertyPlanTransfersAreLinks(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(a, b, c uint8) bool {
		net, _ := randomNet(t, a, b, c)
		g, err := BuildGraph(net)
		if err != nil {
			return false
		}
		w := wsn.NewGrid(4, 5, 1)
		asg, err := AssignBalanced(g, w, DefaultBalanceOptions())
		if err != nil {
			return false
		}
		plan, err := Plan(g, asg, w)
		if err != nil {
			t.Logf("plan: %v", err)
			return false
		}
		for _, tr := range plan {
			if tr.From == tr.To || !w.Linked(tr.From, tr.To) || tr.Scalars <= 0 {
				return false
			}
			if tr.Stage < 1 || tr.Stage >= len(g.Stages) {
				return false
			}
		}
		w.ResetCounters()
		if _, err := ChargeForward(g, asg, w); err != nil {
			return false
		}
		tx, rx := 0, 0
		for _, nd := range w.Nodes() {
			tx += nd.TxScalars
			rx += nd.RxScalars
		}
		return tx == rx
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
