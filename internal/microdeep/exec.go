package microdeep

import (
	"fmt"
	"math"

	"zeiot/internal/obs"
	"zeiot/internal/tensor"
	"zeiot/internal/wsn"
)

// Executor runs the distributed forward pass site by site, exactly as the
// sensor nodes would: each site's output vector is computed from its
// dependencies' vectors using the owning layer's weights. The numeric
// result is identical to the centralized cnn.Network forward pass — the
// package's property tests enforce this — so distribution itself costs no
// accuracy, only communication.
//
// An Executor reuses internal per-site value buffers across Forward calls
// and is therefore not safe for concurrent use; give each goroutine its own
// Executor. The tensor returned by Forward is freshly allocated and owned
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
	// deduplicated per (producer site, consumer node) within one Forward,
	// mirroring the planner's broadcast dedup. With Faults == nil the
	// executor is byte-identical to the fault-free path.
	Net    *wsn.Network
	Faults *wsn.LinkFaultModel
	Retry  wsn.RetryPolicy
	// Stats accumulates delivery outcomes across Forward calls while lossy
	// execution is active.
	Stats DeliveryStats
	// ComputeFaults and ComputeTick (with Assign set) extend brownouts from
	// the link layer to compute: a site whose node is browned out at
	// ComputeTick behaves exactly like a dead node for that pass — its value
	// is zero and never appears on the network. The caller advances
	// ComputeTick per pass (the harvest runtime uses its own tick counter,
	// distinct from the fault model's link-attempt clock).
	ComputeFaults *wsn.LinkFaultModel
	ComputeTick   uint64
	// values[sid] is a view into arena holding the site's output vector;
	// both are scratch reused across Forward calls.
	values [][]float64
	arena  []float64
	// Lossy-execution scratch: delivered memoizes outcomes per (producer
	// site, consumer node) for the current Forward; lostDeps/lostVals
	// record the value views swapped out for zeroBuf while one site
	// computes.
	delivered map[int]bool
	lostDeps  []int
	lostVals  [][]float64
	zeroBuf   []float64
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

// NewExecutor returns an executor for g. Conv sites compute with the
// kernel their layer uses at their position (see cnn.Conv2D.KernelAt), so
// replica tables installed by EnableLocalUpdate are honoured.
func NewExecutor(g *Graph) *Executor { return &Executor{graph: g} }

// ensureArena carves one flat backing buffer into per-site value slices so a
// Forward pass performs no per-site allocation.
func (e *Executor) ensureArena() {
	if e.values != nil {
		clear(e.arena)
		return
	}
	g := e.graph
	total := 0
	for _, s := range g.Sites {
		total += s.Width
	}
	e.arena = make([]float64, total)
	e.values = make([][]float64, len(g.Sites))
	off := 0
	for i, s := range g.Sites {
		e.values[i] = e.arena[off : off+s.Width]
		off += s.Width
	}
}

// Forward computes the network output for input (shape must match the input
// stage) and returns the final stage's outputs as a flat tensor (for a
// dense head: the logits).
func (e *Executor) Forward(input *tensor.Tensor) (*tensor.Tensor, error) {
	g := e.graph
	inSt := g.Stages[0]
	shape := input.Shape()
	if len(shape) != 3 || shape[0] != inSt.C || shape[1] != inSt.H || shape[2] != inSt.W {
		return nil, fmt.Errorf("microdeep: input shape %v, want (%d,%d,%d)", shape, inSt.C, inSt.H, inSt.W)
	}
	e.ensureArena()
	values := e.values
	ind := input.Data()
	for _, sid := range inSt.Sites {
		s := g.Sites[sid]
		if e.siteDead(sid) {
			continue // arena is pre-zeroed
		}
		v := values[sid]
		for c := 0; c < inSt.C; c++ {
			v[c] = ind[(c*inSt.H+s.Y)*inSt.W+s.X]
		}
	}
	lossy := e.Faults != nil && e.Assign != nil && e.Net != nil
	if lossy {
		if e.delivered == nil {
			e.delivered = make(map[int]bool)
		} else {
			clear(e.delivered)
		}
	}
	for si := 1; si < len(g.Stages); si++ {
		st := g.Stages[si]
		prev := g.Stages[si-1]
		for _, sid := range st.Sites {
			s := g.Sites[sid]
			if e.siteDead(sid) {
				continue // arena is pre-zeroed
			}
			if lossy {
				e.lossApply(sid)
			}
			out := values[sid]
			switch st.Kind {
			case StageConv:
				e.convSite(st, s, values, out)
			case StagePool:
				poolSite(st, s, values, out)
			case StageDense:
				denseSite(st, prev, s, g, values, out)
			default:
				return nil, fmt.Errorf("microdeep: cannot execute stage kind %v", st.Kind)
			}
			if lossy {
				e.lossRestore()
			}
			if st.FusedReLU {
				for i, v := range out {
					if v < 0 {
						out[i] = 0
					}
				}
			}
		}
	}
	last := g.Stages[len(g.Stages)-1]
	n := 0
	for _, sid := range last.Sites {
		n += len(values[sid])
	}
	flat := make([]float64, 0, n)
	for _, sid := range last.Sites {
		flat = append(flat, values[sid]...)
	}
	return tensor.FromSlice(flat, len(flat)), nil
}

// lossApply runs the reliable transport for every cross-node dependency of
// site sid, swapping the value views of undelivered dependencies to a
// shared zero buffer so the site computes on zero inputs. lossRestore must
// run after the site's compute. Outcomes memoize per (producer site,
// consumer node): all consumers co-located on one node share a single
// broadcast delivery, exactly like the planner's raw-shipping dedup.
func (e *Executor) lossApply(sid int) {
	s := e.graph.Sites[sid]
	tn := e.Assign.NodeOf[sid]
	numNodes := e.Net.NumNodes()
	for _, dep := range s.Deps {
		dn := e.Assign.NodeOf[dep]
		if dn == tn {
			continue
		}
		key := dep*numNodes + tn
		ok, seen := e.delivered[key]
		if !seen {
			width := e.graph.Sites[dep].Width
			d, err := e.Net.SendReliable(dn, tn, width, e.Faults, e.Retry)
			if err != nil {
				// No route (e.g. a failure partitioned the network): the
				// value can never arrive — treat as lost.
				e.Stats.Transfers++
				e.Stats.Lost++
				ok = false
			} else {
				e.Stats.add(d)
				ok = d.Delivered
			}
			e.delivered[key] = ok
		}
		if !ok {
			width := e.graph.Sites[dep].Width
			if len(e.zeroBuf) < width {
				e.zeroBuf = make([]float64, width)
			}
			e.lostDeps = append(e.lostDeps, dep)
			e.lostVals = append(e.lostVals, e.values[dep])
			e.values[dep] = e.zeroBuf[:width]
		}
	}
}

// lossRestore undoes lossApply's zero-buffer swaps.
func (e *Executor) lossRestore() {
	for i, dep := range e.lostDeps {
		e.values[dep] = e.lostVals[i]
		e.lostVals[i] = nil
	}
	e.lostDeps = e.lostDeps[:0]
	e.lostVals = e.lostVals[:0]
}

func (e *Executor) convSite(st Stage, s Site, values [][]float64, out []float64) {
	conv := st.Conv
	kd := conv.KernelAt(s.Y, s.X).Data()
	bd := conv.Bias().Data()
	khkw := conv.KH * conv.KW
	kcs := conv.InC * khkw
	copy(out, bd[:st.C])
	y0, _, x0, _ := conv.Receptive(s.Y, s.X)
	for _, dep := range s.Deps {
		d := e.graph.Sites[dep]
		kOff := (d.Y-y0)*conv.KW + (d.X - x0)
		dv := values[dep]
		for oc := 0; oc < st.C; oc++ {
			for ic := 0; ic < conv.InC; ic++ {
				out[oc] += kd[oc*kcs+ic*khkw+kOff] * dv[ic]
			}
		}
	}
}

func poolSite(st Stage, s Site, values [][]float64, out []float64) {
	if st.AvgPool != nil {
		clear(out)
		for _, dep := range s.Deps {
			dv := values[dep]
			for c := 0; c < st.C; c++ {
				out[c] += dv[c]
			}
		}
		inv := 1 / float64(len(s.Deps))
		for c := range out {
			out[c] *= inv
		}
		return
	}
	for c := range out {
		out[c] = math.Inf(-1)
	}
	for _, dep := range s.Deps {
		dv := values[dep]
		for c := 0; c < st.C; c++ {
			if dv[c] > out[c] {
				out[c] = dv[c]
			}
		}
	}
}

func denseSite(st Stage, prev Stage, s Site, g *Graph, values [][]float64, out []float64) {
	dense := st.Dense
	o := s.X
	w := dense.Weight()
	wd := w.Data()
	inW := w.Dim(1)
	sum := dense.Params()[1].Data()[o] // bias
	for _, dep := range s.Deps {
		d := g.Sites[dep]
		dv := values[dep]
		if prev.Kind == StageDense {
			sum += wd[o*inW+d.X] * dv[0]
		} else {
			// Flattened (C,H,W) layout: index = (c*H + y)*W + x.
			for c := 0; c < prev.C; c++ {
				idx := (c*prev.H+d.Y)*prev.W + d.X
				sum += wd[o*inW+idx] * dv[c]
			}
		}
	}
	out[0] = sum
}
