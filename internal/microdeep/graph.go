// Package microdeep implements the paper's core contribution: MicroDeep
// [7], a distributed CNN executed by a wireless sensor network.
//
// The CNN's neurons ("units") are mapped onto XY coordinates over the
// sensor field (the paper's Fig. 8), assigned to sensor nodes, and the
// forward and backward passes are carried out by exchanging activation and
// gradient values over multi-hop WSN links. The package provides:
//
//   - a unit graph extracted from a cnn.Network (sites, dependency edges);
//   - two assignment strategies: coordinate-nearest (the natural XY
//     mapping) and the paper's balanced heuristic that equalizes units per
//     node while maximizing the correspondence of CNN links and WSN links;
//   - per-node communication-cost accounting (the Fig. 10 metric);
//   - a distributed forward executor that computes the centralized CNN's
//     function in its own summation order, so its outputs equal the
//     centralized pass's up to rounding (property-tested to 1e-9) and the
//     only accuracy-relevant approximation is the local weight-update mode;
//   - the local update mode itself: per-node replicas of shared
//     convolution kernels trained without gradient aggregation,
//     "sacrificing some accuracy" to eliminate weight-synchronization
//     traffic, as §IV.C describes.
package microdeep

import (
	"fmt"
	"math"

	"zeiot/internal/cnn"
	"zeiot/internal/geom"
)

// StageKind discriminates the computational stages of the unit graph.
type StageKind int

// Stage kinds.
const (
	StageInput StageKind = iota + 1
	StageConv
	StagePool
	StageDense
)

func (k StageKind) String() string {
	switch k {
	case StageInput:
		return "input"
	case StageConv:
		return "conv"
	case StagePool:
		return "pool"
	case StageDense:
		return "dense"
	default:
		return fmt.Sprintf("StageKind(%d)", int(k))
	}
}

// Site is a group of CNN units sharing one spatial position: all channels
// of a conv/pool output at (y, x), or a single dense neuron. A site is the
// unit of placement — its Width scalar outputs always live together on one
// node.
type Site struct {
	ID    int
	Stage int
	// Y, X are the spatial indices within the stage; dense sites use
	// (0, i).
	Y, X int
	// Coord is the site's normalized position in [0,1]² over the sensor
	// field.
	Coord geom.Point
	// Width is the number of scalar values the site produces per sample.
	Width int
	// Deps are the site IDs whose outputs this site reads.
	Deps []int
}

// Stage describes one computational stage of the graph.
type Stage struct {
	Kind StageKind
	// H, W, C are the output dims; dense stages have H=1, W=#neurons, C=1.
	H, W, C int
	// Conv/Pool/AvgPool/Dense point at the owning layer for weight access
	// and pooling semantics.
	Conv    *cnn.Conv2D
	Pool    *cnn.MaxPool2D
	AvgPool *cnn.AvgPool2D
	Dense   *cnn.Dense
	// FusedReLU records that a ReLU immediately follows and is evaluated
	// in place on the producing node (no extra units or traffic).
	FusedReLU bool
	// Sites lists the site IDs belonging to this stage in (y,x) order.
	Sites []int
}

// Graph is the unit graph of a CNN: sites grouped into stages with
// dependency edges, ready for assignment onto a WSN. A Graph must not be
// copied after first use: it owns its plan cache (see plancache.go).
type Graph struct {
	Stages []Stage
	Sites  []Site

	// plans memoizes transfer plans for this graph, keyed on the target
	// network's identity and topology epoch plus the assignment hash; the
	// cache dies with the graph.
	plans planCache
}

// NumSites returns the total number of sites.
func (g *Graph) NumSites() int { return len(g.Sites) }

// PlanCacheStats returns the cumulative hit/miss counts of this graph's
// transfer-plan cache (see plancache.go). A forced recompute after a hash
// collision counts as a miss.
func (g *Graph) PlanCacheStats() (hits, misses uint64) {
	g.plans.mu.Lock()
	defer g.plans.mu.Unlock()
	return g.plans.hits, g.plans.misses
}

// NumUnits returns the total number of scalar units (sum of site widths)
// excluding the input stage, i.e. the neurons the WSN must compute.
func (g *Graph) NumUnits() int {
	n := 0
	for _, s := range g.Sites {
		if s.Stage > 0 {
			n += s.Width
		}
	}
	return n
}

func normCoord(y, x, h, w int) geom.Point {
	return geom.Point{X: (float64(x) + 0.5) / float64(w), Y: (float64(y) + 0.5) / float64(h)}
}

// BuildGraph extracts the unit graph from net. Supported layer sequences
// are Conv2D, MaxPool2D, Dense with optional ReLU after Conv2D/Dense and a
// single Flatten before the first Dense — exactly the CNN family the paper
// uses (one conv, one pool, two fully-connected layers in §IV.C).
func BuildGraph(net *cnn.Network) (*Graph, error) {
	g := &Graph{}
	in := net.InShape()
	if len(in) != 3 {
		return nil, fmt.Errorf("microdeep: input shape %v, want (C,H,W)", in)
	}
	// Input stage: one site per sensor cell.
	addStage := func(st Stage) int {
		g.Stages = append(g.Stages, st)
		return len(g.Stages) - 1
	}
	addSite := func(stageIdx, y, x, width int, coord geom.Point, deps []int) int {
		id := len(g.Sites)
		g.Sites = append(g.Sites, Site{ID: id, Stage: stageIdx, Y: y, X: x, Coord: coord, Width: width, Deps: deps})
		g.Stages[stageIdx].Sites = append(g.Stages[stageIdx].Sites, id)
		return id
	}
	inputStage := addStage(Stage{Kind: StageInput, C: in[0], H: in[1], W: in[2]})
	// siteAt maps the previous stage's (y,x) to site ID.
	prevIdx := make([][]int, in[1])
	for y := 0; y < in[1]; y++ {
		prevIdx[y] = make([]int, in[2])
		for x := 0; x < in[2]; x++ {
			prevIdx[y][x] = addSite(inputStage, y, x, in[0], normCoord(y, x, in[1], in[2]), nil)
		}
	}
	prevShape := []int{in[0], in[1], in[2]}
	prevDense := []int(nil) // site IDs when previous stage is dense

	layers := net.Layers()
	for li := 0; li < len(layers); li++ {
		switch l := layers[li].(type) {
		case *cnn.Conv2D:
			if prevDense != nil {
				return nil, fmt.Errorf("microdeep: conv after dense unsupported")
			}
			out := l.OutShape(prevShape)
			st := addStage(Stage{Kind: StageConv, C: out[0], H: out[1], W: out[2], Conv: l})
			if li+1 < len(layers) {
				if _, ok := layers[li+1].(*cnn.ReLU); ok {
					g.Stages[st].FusedReLU = true
					li++
				}
			}
			newIdx := make([][]int, out[1])
			for oy := 0; oy < out[1]; oy++ {
				newIdx[oy] = make([]int, out[2])
				for ox := 0; ox < out[2]; ox++ {
					y0, y1, x0, x1 := l.Receptive(oy, ox)
					var deps []int
					for y := y0; y <= y1; y++ {
						if y < 0 || y >= prevShape[1] {
							continue
						}
						for x := x0; x <= x1; x++ {
							if x < 0 || x >= prevShape[2] {
								continue
							}
							deps = append(deps, prevIdx[y][x])
						}
					}
					newIdx[oy][ox] = addSite(st, oy, ox, out[0], normCoord(oy, ox, out[1], out[2]), deps)
				}
			}
			prevIdx, prevShape = newIdx, out
		case *cnn.MaxPool2D:
			if prevDense != nil {
				return nil, fmt.Errorf("microdeep: pool after dense unsupported")
			}
			out := l.OutShape(prevShape)
			st := addStage(Stage{Kind: StagePool, C: out[0], H: out[1], W: out[2], Pool: l})
			newIdx := poolSites(addSite, st, l, out, prevIdx)
			prevIdx, prevShape = newIdx, out
		case *cnn.AvgPool2D:
			if prevDense != nil {
				return nil, fmt.Errorf("microdeep: pool after dense unsupported")
			}
			out := l.OutShape(prevShape)
			st := addStage(Stage{Kind: StagePool, C: out[0], H: out[1], W: out[2], AvgPool: l})
			newIdx := poolSites(addSite, st, l, out, prevIdx)
			prevIdx, prevShape = newIdx, out
		case *cnn.Flatten:
			// No units: flattening is a bookkeeping step. The following
			// dense layer reads the spatial sites directly.
		case *cnn.ReLU:
			// A ReLU not fused into conv/dense above (e.g. after pool):
			// element-wise on the producing node, no units or traffic.
			if len(g.Stages) > 0 {
				g.Stages[len(g.Stages)-1].FusedReLU = true
			}
		case *cnn.Dense:
			var deps []int
			if prevDense != nil {
				deps = prevDense
			} else {
				for y := 0; y < prevShape[1]; y++ {
					deps = append(deps, prevIdx[y]...)
				}
			}
			st := addStage(Stage{Kind: StageDense, H: 1, W: l.Out, C: 1, Dense: l})
			if li+1 < len(layers) {
				if _, ok := layers[li+1].(*cnn.ReLU); ok {
					g.Stages[st].FusedReLU = true
					li++
				}
			}
			// Dense sites spread over a √n×√n virtual grid so the
			// coordinate assigner scatters them across the field.
			side := int(math.Ceil(math.Sqrt(float64(l.Out))))
			ids := make([]int, l.Out)
			for o := 0; o < l.Out; o++ {
				coord := normCoord(o/side, o%side, side, side)
				ids[o] = addSite(st, 0, o, 1, coord, deps)
			}
			prevDense = ids
			prevShape = nil
		default:
			return nil, fmt.Errorf("microdeep: unsupported layer %T", l)
		}
	}
	return g, nil
}

// poolSites adds one site per pooling output position with its window
// dependencies in scan order, for either pooling flavour. Both pools'
// OutShape reject a window wider than the input, so no window is clipped.
func poolSites(addSite func(stageIdx, y, x, width int, coord geom.Point, deps []int) int, st int, l cnn.SpatialLayer, out []int, prevIdx [][]int) [][]int {
	newIdx := make([][]int, out[1])
	for oy := 0; oy < out[1]; oy++ {
		newIdx[oy] = make([]int, out[2])
		for ox := 0; ox < out[2]; ox++ {
			y0, y1, x0, x1 := l.Receptive(oy, ox)
			var deps []int
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					deps = append(deps, prevIdx[y][x])
				}
			}
			newIdx[oy][ox] = addSite(st, oy, ox, out[0], normCoord(oy, ox, out[1], out[2]), deps)
		}
	}
	return newIdx
}
