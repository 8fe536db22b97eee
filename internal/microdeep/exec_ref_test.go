package microdeep

import (
	"fmt"
	"math"
	"testing"

	"zeiot/internal/cnn"
	"zeiot/internal/rng"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// refForward is the executor's oracle: one sample, one site at a time, each
// site's values in a slice of their own, with cnn's pool and ReLU
// arithmetic. It honours e's Assign, DeadNodes, DeadSites and
// ComputeFaults at ComputeTick, not lossy links.
func refForward(e *Executor, input *tensor.Tensor) []float64 {
	g := e.graph
	dead := func(sid int) bool {
		if e.DeadSites[sid] {
			return true
		}
		if e.Assign == nil {
			return false
		}
		n := e.Assign.NodeOf[sid]
		return e.DeadNodes[n] || (e.ComputeFaults != nil && e.ComputeFaults.BrownedOut(n, e.ComputeTick))
	}
	values := make([][]float64, len(g.Sites))
	for sid, s := range g.Sites {
		values[sid] = make([]float64, s.Width)
	}
	inSt := &g.Stages[0]
	ind := input.Data()
	for _, sid := range inSt.Sites {
		if dead(sid) {
			continue
		}
		s := &g.Sites[sid]
		for c := 0; c < inSt.C; c++ {
			values[sid][c] = ind[(c*inSt.H+s.Y)*inSt.W+s.X]
		}
	}
	for si := 1; si < len(g.Stages); si++ {
		st, prev := &g.Stages[si], &g.Stages[si-1]
		for _, sid := range st.Sites {
			if dead(sid) {
				continue
			}
			s := &g.Sites[sid]
			out := values[sid]
			switch st.Kind {
			case StageConv:
				refConvSite(g, st, s, values, out)
			case StagePool:
				refPoolSite(s, values, out)
			case StageDense:
				refDenseSite(g, st, prev, s, values, out)
			}
			if st.FusedReLU {
				for i, v := range out {
					out[i] = refReLU(v)
				}
			}
		}
	}
	var flat []float64
	for _, sid := range g.Stages[len(g.Stages)-1].Sites {
		flat = append(flat, values[sid]...)
	}
	return flat
}

// refReLU is cnn's ReLU: v when v > 0 or v is a NaN with its sign bit
// clear, +0 otherwise.
func refReLU(v float64) float64 {
	if v > 0 || (math.IsNaN(v) && !math.Signbit(v)) {
		return v
	}
	return 0
}

func refConvSite(g *Graph, st *Stage, s *Site, values [][]float64, out []float64) {
	conv := st.Conv
	kd := conv.KernelAt(s.Y, s.X).Data()
	khkw := conv.KH * conv.KW
	kcs := conv.InC * khkw
	copy(out, conv.Bias().Data()[:st.C])
	y0, _, x0, _ := conv.Receptive(s.Y, s.X)
	for _, dep := range s.Deps {
		d := &g.Sites[dep]
		kOff := (d.Y-y0)*conv.KW + (d.X - x0)
		dv := values[dep]
		for oc := 0; oc < st.C; oc++ {
			for ic := 0; ic < conv.InC; ic++ {
				out[oc] += kd[oc*kcs+ic*khkw+kOff] * dv[ic]
			}
		}
	}
}

func refPoolSite(s *Site, values [][]float64, out []float64) {
	copy(out, values[s.Deps[0]])
	for _, dep := range s.Deps[1:] {
		for c := range out {
			out[c] = max(out[c], values[dep][c])
		}
	}
}

func refDenseSite(g *Graph, st, prev *Stage, s *Site, values [][]float64, out []float64) {
	wd := st.Dense.Weight().Data()
	inW := st.Dense.Weight().Dim(1)
	o := s.X
	sum := st.Dense.Params()[1].Data()[o]
	for _, dep := range s.Deps {
		d := &g.Sites[dep]
		for c, v := range values[dep] {
			// Flattened (C,H,W) layout: index = (c*H + y)*W + x.
			sum += wd[o*inW+(c*prev.H+d.Y)*prev.W+d.X] * v
		}
	}
	out[0] = sum
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// counting any two NaNs as equal: a max pool ORs a NaN with the bits of its
// window's other cells, and which of two such NaNs an addition keeps
// depends on which operand the compiler makes the destination.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestForwardBatchMatchesReference compares ForwardBatch at n ∈ {1, 3, 8,
// 175} and Forward on each of the 175 samples with refForward, bit for bit,
// on the e1 fall net (ten input channels), the e2/e8 lounge net with and
// without local-update replicas, and E17's 8×8 net, each clean, with dead
// nodes, with dead sites, reassigned around failed nodes, and under
// compute brownouts. Two samples hold NaN, ±Inf and ±0 cells.
func TestForwardBatchMatchesReference(t *testing.T) {
	type arch struct {
		name  string
		net   func(s *rng.Stream) *cnn.Network
		grid  [2]int
		local bool
	}
	lounge := func(s *rng.Stream) *cnn.Network {
		return cnn.NewNetwork([]int{1, 17, 25},
			cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")), cnn.NewReLU(), cnn.NewMaxPool2D(3, 3), cnn.NewFlatten(),
			cnn.NewDense(4*5*8, 16, s.Split("d1")), cnn.NewReLU(), cnn.NewDense(16, 2, s.Split("d2")))
	}
	archs := []arch{
		{"fall", func(s *rng.Stream) *cnn.Network {
			return cnn.NewNetwork([]int{10, 8, 8},
				cnn.NewConv2D(10, 6, 3, 3, 1, 1, s.Split("c")), cnn.NewReLU(), cnn.NewMaxPool2D(2, 2), cnn.NewFlatten(),
				cnn.NewDense(6*4*4, 24, s.Split("d1")), cnn.NewReLU(), cnn.NewDense(24, 2, s.Split("d2")))
		}, [2]int{8, 8}, true},
		{"lounge", lounge, [2]int{5, 10}, false},
		{"lounge-local", lounge, [2]int{5, 10}, true},
		{"e17", func(s *rng.Stream) *cnn.Network {
			return cnn.NewNetwork([]int{1, 8, 8},
				cnn.NewConv2D(1, 4, 3, 3, 1, 1, s.Split("c")), cnn.NewReLU(), cnn.NewMaxPool2D(2, 2), cnn.NewFlatten(),
				cnn.NewDense(4*4*4, 16, s.Split("d1")), cnn.NewReLU(), cnn.NewDense(16, 2, s.Split("d2")))
		}, [2]int{8, 8}, false},
	}
	for ai, ar := range archs {
		s := rng.New(uint64(500 + ai))
		w := wsn.NewGrid(ar.grid[0], ar.grid[1], 1)
		m, err := Build(ar.net(s.Split("net")), w, StrategyBalanced)
		if err != nil {
			t.Fatal(err)
		}
		if ar.local {
			// Give every position a kernel of its own, as local training does.
			m.EnableLocalUpdate()
			for _, r := range m.replicas {
				for _, k := range r.kernels {
					for i := range k.Data() {
						k.Data()[i] += 0.3 * s.Norm()
					}
				}
			}
		}
		shape := m.Net.InShape()
		inputs := make([]*tensor.Tensor, 175)
		for i := range inputs {
			inputs[i] = tensor.New(shape...)
			for j := range inputs[i].Data() {
				inputs[i].Data()[j] = s.NormMeanStd(0, 1)
			}
		}
		// Special cells. Sample 40's NaNs are all positive, so the fused
		// ReLUs keep every one; sample 101's ±Inf make only the default NaN
		// (+Inf + −Inf), which the ReLUs map to +0.
		for i, v := range []float64{math.NaN(), math.Copysign(0, -1), 0, math.NaN()} {
			inputs[40].Data()[7*i+3] = v
		}
		for i, v := range []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.Inf(-1)} {
			inputs[101].Data()[len(inputs[101].Data())-1-5*i] = v
		}

		// Failure patterns: the nodes nearest node 0, the reassignment
		// around them, and brownout windows on a third of the nodes.
		failed := map[int]bool{0: true, 1: true, ar.grid[1]: true}
		wFail := wsn.NewGrid(ar.grid[0], ar.grid[1], 1)
		for n := range failed {
			wFail.Fail(n)
		}
		reassigned, err := AssignBalanced(m.Graph, wFail, DefaultBalanceOptions())
		if err != nil {
			t.Fatal(err)
		}
		deadInputs := map[int]bool{}
		for _, sid := range m.Graph.Stages[0].Sites {
			if failed[m.Assign.NodeOf[sid]] {
				deadInputs[sid] = true
			}
		}
		deadSites := map[int]bool{}
		for sid := 0; sid < m.Graph.NumSites(); sid += 7 {
			deadSites[sid] = true
		}
		fm := wsn.NewLinkFaultModel(wsn.FaultConfig{})
		for n := 0; n < w.NumNodes(); n += 3 {
			fm.AddBrownout(wsn.Brownout{Node: n, Start: uint64(n), End: uint64(n + 40)})
		}
		conditions := []struct {
			name string
			set  func(e *Executor)
		}{
			{"clean", func(e *Executor) {}},
			{"dead-nodes", func(e *Executor) { e.Assign, e.DeadNodes = &m.Assign, failed }},
			{"dead-sites", func(e *Executor) { e.DeadSites = deadSites }},
			{"reassigned", func(e *Executor) { e.Assign, e.DeadSites = &reassigned, deadInputs }},
			{"brownout", func(e *Executor) { e.Assign, e.ComputeFaults, e.ComputeTick = &m.Assign, fm, 20 }},
		}
		for _, cond := range conditions {
			t.Run(fmt.Sprintf("%s/%s", ar.name, cond.name), func(t *testing.T) {
				ex := NewExecutor(m.Graph)
				cond.set(ex)
				want := make([][]float64, len(inputs))
				for i, in := range inputs {
					want[i] = refForward(ex, in)
				}
				for i, in := range inputs {
					got, err := ex.Forward(in)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got.Data(), want[i]) {
						t.Fatalf("Forward sample %d = %v, reference %v", i, got.Data(), want[i])
					}
				}
				for _, n := range []int{1, 3, 8, 175} {
					outs, err := ex.ForwardBatch(inputs[:n])
					if err != nil {
						t.Fatal(err)
					}
					for i, got := range outs {
						if !sameBits(got.Data(), want[i]) {
							t.Fatalf("ForwardBatch n=%d sample %d = %v, reference %v", n, i, got.Data(), want[i])
						}
					}
				}
			})
		}
	}
}
