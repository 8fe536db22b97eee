package microdeep

import (
	"fmt"

	"zeiot/internal/obs"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// blockSize is the number of samples ForwardBatch runs through one walk of
// the graph, each with its own register accumulator.
const blockSize = 8

// Executor runs the distributed forward pass site by site, as the sensor
// nodes would: each site's output vector is computed from its dependencies'
// vectors using the owning layer's weights. It computes the function of the
// centralized cnn.Network forward pass in its own summation order: a conv
// or dense site starts from its bias and adds its dependencies' terms in
// Deps order, input channel inner. Pooling and ReLU are cnn's arithmetic
// (max pooling folds the builtin max in scan order, ReLU is tensor.ReLU),
// so the outputs equal Network.Forward's up to rounding, not bit for bit:
// over 200 lounge samples, 342 to 373 of the lounge network's 400 logits
// differ, by at most 2.5e-14, and the package's property tests check 1e-9.
// Distribution itself costs no accuracy, only communication.
//
// An Executor reuses its value arena across calls and is therefore not
// safe for concurrent use; give each goroutine its own Executor. The
// tensors Forward and ForwardBatch return are freshly allocated and owned
// by the caller.
type Executor struct {
	graph *Graph
	// Assign and DeadNodes, when set together, model broken devices (the
	// §V resilience challenge): a site assigned to a dead node produces
	// zeros — its value simply never appears on the network. DeadSites
	// silences individual sites directly (e.g. the readings of sensors
	// that died before a reassignment moved their compute elsewhere).
	Assign    *Assignment
	DeadNodes map[int]bool
	DeadSites map[int]bool
	// Net, Faults, and Retry (with Assign set) enable lossy execution — the
	// §V broken-devices challenge extended from dead nodes to marginal
	// links: every cross-node dependency transfer goes through
	// Net.SendReliable under the fault model, charging the actual
	// per-attempt Tx/Rx scalars on Net's counters. A transfer that
	// exhausts its retries degrades gracefully: the consuming site computes
	// on a zero input instead of the whole pass erroring. Outcomes are
	// deduplicated per (producer site, consumer node) within one sample,
	// mirroring the planner's broadcast dedup. The per-link fault streams
	// advance with every transfer, so lossy execution runs one sample at a
	// time, in input order. With Faults == nil the executor is
	// byte-identical to the fault-free path.
	Net    *wsn.Network
	Faults *wsn.LinkFaultModel
	Retry  wsn.RetryPolicy
	// Stats accumulates delivery outcomes across calls while lossy
	// execution is active.
	Stats DeliveryStats
	// ComputeFaults and ComputeTick (with Assign set) extend brownouts from
	// the link layer to compute: a site whose node is browned out at
	// ComputeTick behaves exactly like a dead node for that call — its
	// value is zero and never appears on the network. The caller advances
	// ComputeTick per pass (the harvest runtime uses its own tick counter,
	// distinct from the fault model's link-attempt clock).
	ComputeFaults *wsn.LinkFaultModel
	ComputeTick   uint64

	// The plan NewExecutor fixes. Counting each site's Width values in site
	// order, site sid's first value is unit[sid], and a block of lanes
	// samples keeps sample j's copy of unit u at arena[u*lanes+j]: site-major,
	// then channel, then sample. terms[ptr[sid]:ptr[sid+1]] lists the
	// site's inputs in Deps order, channel inner (a pool site reads each
	// dependency whole, so it has one term per dependency). The final
	// stage's values are units outLo..units-1; a zero region of maxW units
	// follows them.
	unit, ptr          []int
	terms              []term
	outLo, units, maxW int
	// Scratch reused across calls: the value arena, the dead-site mask, and
	// for lossy execution the delivery outcomes of the current sample and
	// the terms of the site being computed.
	arena     []float64
	dead      []bool
	delivered map[int]bool
	lossTerms []term
}

// DeliveryStats aggregates reliable-transport outcomes over the transfers
// of one or more passes.
type DeliveryStats struct {
	// Transfers counts end-to-end deliveries attempted; Lost the ones that
	// exhausted their retries.
	Transfers, Lost int
	// Attempts counts link-level transmissions (retransmissions included);
	// Retries the retransmissions alone; BackoffSlots the accumulated
	// backoff waits.
	Attempts, Retries, BackoffSlots int
}

// Record publishes the rollup as gauges under prefix (transfers, lost,
// attempts, retries, backoff_slots); a no-op with a nil recorder. Gauges
// rather than counters so re-recording the same accumulated stats is
// idempotent.
func (s *DeliveryStats) Record(r obs.Recorder, prefix string) {
	if r == nil {
		return
	}
	r.Gauge(prefix+"transfers", float64(s.Transfers))
	r.Gauge(prefix+"lost", float64(s.Lost))
	r.Gauge(prefix+"attempts", float64(s.Attempts))
	r.Gauge(prefix+"retries", float64(s.Retries))
	r.Gauge(prefix+"backoff_slots", float64(s.BackoffSlots))
}

func (s *DeliveryStats) add(d wsn.Delivery) {
	s.Transfers++
	if !d.Delivered {
		s.Lost++
	}
	s.Attempts += d.Attempts
	s.Retries += d.Retries
	s.BackoffSlots += d.BackoffSlots
}

func (e *Executor) siteDead(sid int) bool {
	if e.DeadSites[sid] {
		return true
	}
	if e.Assign == nil {
		return false
	}
	if len(e.DeadNodes) > 0 && e.DeadNodes[e.Assign.NodeOf[sid]] {
		return true
	}
	return e.ComputeFaults != nil && e.ComputeFaults.BrownedOut(e.Assign.NodeOf[sid], e.ComputeTick)
}

// term is one input of a site: the arena unit of a value and, for a conv
// or dense site, the offset of the weight it multiplies in the site's
// kernel or weight row.
type term struct{ u, w int32 }

// NewExecutor returns an executor for g. Conv sites compute with the
// kernel their layer uses at their position (see cnn.Conv2D.KernelAt), so
// replica tables installed by EnableLocalUpdate are honoured.
func NewExecutor(g *Graph) *Executor {
	n := len(g.Sites)
	e := &Executor{graph: g, unit: make([]int, n), ptr: make([]int, n+1), dead: make([]bool, n)}
	for sid, s := range g.Sites {
		e.unit[sid] = e.units
		e.units += s.Width
		e.maxW = max(e.maxW, s.Width)
	}
	for sid := range g.Sites {
		s := &g.Sites[sid]
		st := &g.Stages[s.Stage]
		for _, dep := range s.Deps {
			d := &g.Sites[dep]
			prev := &g.Stages[d.Stage]
			// A dense weight row is laid out (C,H,W) over the previous
			// stage; a conv kernel (InC,KH,KW) over the receptive field.
			ch, w, stride := prev.C, d.Y*prev.W+d.X, prev.H*prev.W
			if conv := st.Conv; conv != nil {
				y0, _, x0, _ := conv.Receptive(s.Y, s.X)
				w, stride = (d.Y-y0)*conv.KW+d.X-x0, conv.KH*conv.KW
			}
			if st.Kind == StagePool {
				ch = 1
			}
			for c := 0; c < ch; c++ {
				e.terms = append(e.terms, term{int32(e.unit[dep] + c), int32(w + c*stride)})
			}
		}
		e.ptr[sid+1] = len(e.terms)
	}
	last := g.Stages[len(g.Stages)-1].Sites
	e.outLo = e.unit[last[0]]
	return e
}

// Forward computes the network output for input (shape must match the input
// stage) and returns the final stage's outputs as a flat tensor (for a
// dense head: the logits). It is ForwardBatch over one sample.
func (e *Executor) Forward(input *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := e.ForwardBatch([]*tensor.Tensor{input})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ForwardBatch computes Forward for every input, walking the graph once
// per block of up to blockSize samples, and returns the outputs in input
// order. Each output is bit for bit the one Forward returns for that input
// alone. The dead sites (DeadNodes, DeadSites, and ComputeFaults at
// ComputeTick) are fixed once for the whole call; lossy execution runs one
// sample per block, in input order.
func (e *Executor) ForwardBatch(inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	g := e.graph
	inSt := &g.Stages[0]
	if len(inputs) == 0 {
		return nil, fmt.Errorf("microdeep: ForwardBatch of no inputs")
	}
	for _, in := range inputs {
		if shape := in.Shape(); len(shape) != 3 || shape[0] != inSt.C || shape[1] != inSt.H || shape[2] != inSt.W {
			return nil, fmt.Errorf("microdeep: input shape %v, want (%d,%d,%d)", shape, inSt.C, inSt.H, inSt.W)
		}
	}
	lossy := e.Faults != nil && e.Assign != nil && e.Net != nil
	lanes := blockSize
	if lossy || len(inputs) == 1 {
		lanes = 1
	}
	if lossy && e.delivered == nil {
		e.delivered = make(map[int]bool)
	}
	a := e.prepare(lanes)
	nOut := e.units - e.outLo
	flat := make([]float64, len(inputs)*nOut)
	outs := make([]*tensor.Tensor, len(inputs))
	for b0 := 0; b0 < len(inputs); b0 += lanes {
		block := inputs[b0:min(b0+lanes, len(inputs))]
		var ins [blockSize][]float64
		for j, in := range block {
			ins[j] = in.Data()
		}
		for _, sid := range inSt.Sites {
			if e.dead[sid] {
				continue
			}
			s := &g.Sites[sid]
			for c := 0; c < inSt.C; c++ {
				i, v := (c*inSt.H+s.Y)*inSt.W+s.X, a[(e.unit[sid]+c)*lanes:]
				for j, in := range ins[:len(block)] {
					v[j] = in[i]
				}
			}
		}
		if lossy {
			clear(e.delivered)
		}
		for si := 1; si < len(g.Stages); si++ {
			st := &g.Stages[si]
			for _, sid := range st.Sites {
				if e.dead[sid] {
					continue
				}
				terms := e.terms[e.ptr[sid]:e.ptr[sid+1]]
				if lossy {
					terms = e.deliver(sid, terms)
				}
				s := &g.Sites[sid]
				out := e.unit[sid]
				switch st.Kind {
				case StageConv:
					conv := st.Conv
					dotSite(a, lanes, out, terms, conv.KernelAt(s.Y, s.X).Data(),
						conv.Bias().Data()[:st.C], conv.InC*conv.KH*conv.KW, st.FusedReLU)
				case StageDense:
					w := st.Dense.Weight()
					dotSite(a, lanes, out, terms, w.Data()[s.X*w.Dim(1):],
						st.Dense.Params()[1].Data()[s.X:s.X+1], 0, st.FusedReLU)
				case StagePool:
					poolSite(a[out*lanes:(out+s.Width)*lanes], a, lanes, terms, st.FusedReLU)
				default:
					return nil, fmt.Errorf("microdeep: cannot execute stage kind %v", st.Kind)
				}
			}
		}
		for j := range block {
			row := flat[(b0+j)*nOut : (b0+j+1)*nOut]
			for k := range row {
				row[k] = a[(e.outLo+k)*lanes+j]
			}
			outs[b0+j] = tensor.FromSlice(row, nOut)
		}
	}
	return outs, nil
}

// prepare sizes the arena for blocks of lanes samples, fixes the call's
// dead sites, and zeroes their values and the zero region: nothing else in
// the call writes them.
func (e *Executor) prepare(lanes int) []float64 {
	n := (e.units + e.maxW) * lanes
	if cap(e.arena) < n {
		e.arena = make([]float64, n)
	}
	a := e.arena[:n]
	for sid := range e.dead {
		e.dead[sid] = e.siteDead(sid)
		if e.dead[sid] {
			clear(a[e.unit[sid]*lanes : (e.unit[sid]+e.graph.Sites[sid].Width)*lanes])
		}
	}
	clear(a[e.units*lanes:])
	return a
}

// deliver runs the reliable transport for every cross-node dependency of
// site sid and returns the site's terms with every undelivered
// dependency's values moved to the zero region, so the site computes on a
// zero input. Outcomes memoize per (producer site, consumer node): all
// consumers co-located on one node share a single broadcast delivery,
// exactly like the planner's raw-shipping dedup.
func (e *Executor) deliver(sid int, terms []term) []term {
	s := &e.graph.Sites[sid]
	tn := e.Assign.NodeOf[sid]
	numNodes := e.Net.NumNodes()
	e.lossTerms = append(e.lossTerms[:0], terms...)
	for i, dep := range s.Deps {
		dn := e.Assign.NodeOf[dep]
		if dn == tn {
			continue
		}
		key := dep*numNodes + tn
		ok, seen := e.delivered[key]
		if !seen {
			d, err := e.Net.SendReliable(dn, tn, e.graph.Sites[dep].Width, e.Faults, e.Retry)
			if err != nil {
				// No route (e.g. a failure partitioned the network): the
				// value can never arrive — treat as lost.
				e.Stats.Transfers++
				e.Stats.Lost++
			} else {
				e.Stats.add(d)
				ok = d.Delivered
			}
			e.delivered[key] = ok
		}
		if !ok {
			per := len(terms) / len(s.Deps) // terms per dependency
			for c := range per {
				e.lossTerms[i*per+c].u = int32(e.units + c)
			}
		}
	}
	return e.lossTerms
}

// dotSite computes the len(bias) values of a conv or dense site, whose first
// unit is out, for a block of lanes samples (1 or blockSize). Output o
// starts from bias[o] and adds w[o*rowStride+t.w] times unit t.u for each
// term t in order, in one accumulator per sample.
func dotSite(a []float64, lanes, out int, terms []term, w, bias []float64, rowStride int, relu bool) {
	for o, b := range bias {
		row := w[o*rowStride:]
		if lanes == 1 {
			acc := b
			for _, t := range terms {
				acc += row[t.w] * a[t.u]
			}
			if relu {
				acc = tensor.ReLU(acc)
			}
			a[out+o] = acc
			continue
		}
		a0, a1, a2, a3, a4, a5, a6, a7 := b, b, b, b, b, b, b, b
		for _, t := range terms {
			wt := row[t.w]
			v := (*[blockSize]float64)(a[int(t.u)*blockSize:])
			a0 += wt * v[0]
			a1 += wt * v[1]
			a2 += wt * v[2]
			a3 += wt * v[3]
			a4 += wt * v[4]
			a5 += wt * v[5]
			a6 += wt * v[6]
			a7 += wt * v[7]
		}
		if relu {
			a0, a1, a2, a3 = tensor.ReLU(a0), tensor.ReLU(a1), tensor.ReLU(a2), tensor.ReLU(a3)
			a4, a5, a6, a7 = tensor.ReLU(a4), tensor.ReLU(a5), tensor.ReLU(a6), tensor.ReLU(a7)
		}
		v := (*[blockSize]float64)(a[(out+o)*blockSize:])
		v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7] = a0, a1, a2, a3, a4, a5, a6, a7
	}
}

// poolSite computes a max-pool site's values, out, for a block of lanes
// samples from the window cells its terms name: it folds the builtin max
// from the first cell in scan order, as cnn.MaxPool2D does, so a NaN
// propagates and +0 beats −0.
func poolSite(out, a []float64, lanes int, terms []term, relu bool) {
	cell := func(t term) []float64 { return a[int(t.u)*lanes : int(t.u)*lanes+len(out)] }
	copy(out, cell(terms[0]))
	for _, t := range terms[1:] {
		for i, v := range cell(t) {
			out[i] = max(out[i], v)
		}
	}
	if relu {
		for i, v := range out {
			out[i] = tensor.ReLU(v)
		}
	}
}
