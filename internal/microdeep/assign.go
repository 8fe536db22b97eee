package microdeep

import (
	"fmt"
	"math"

	"zeiot/internal/geom"
	"zeiot/internal/wsn"
)

// Assignment maps every site of a Graph to a WSN node.
type Assignment struct {
	// NodeOf[siteID] is the owning node ID.
	NodeOf []int
}

// fieldBox returns the bounding box of the live nodes.
func fieldBox(w *wsn.Network) (minP, maxP geom.Point) {
	minP = geom.Point{X: math.Inf(1), Y: math.Inf(1)}
	maxP = geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	for _, nd := range w.Nodes() {
		if nd.Failed {
			continue
		}
		minP.X = math.Min(minP.X, nd.Pos.X)
		minP.Y = math.Min(minP.Y, nd.Pos.Y)
		maxP.X = math.Max(maxP.X, nd.Pos.X)
		maxP.Y = math.Max(maxP.Y, nd.Pos.Y)
	}
	return minP, maxP
}

// toField maps a normalized [0,1]² coordinate into the node field.
func toField(c geom.Point, minP, maxP geom.Point) geom.Point {
	return geom.Point{
		X: minP.X + c.X*(maxP.X-minP.X),
		Y: minP.Y + c.Y*(maxP.Y-minP.Y),
	}
}

func nearestLiveNode(w *wsn.Network, p geom.Point) int {
	best, bestD := -1, math.Inf(1)
	for _, nd := range w.Nodes() {
		if nd.Failed {
			continue
		}
		d := geom.Dist(nd.Pos, p)
		if d < bestD {
			best, bestD = nd.ID, d
		}
	}
	return best
}

// AssignByCoordinate implements the paper's natural XY mapping (Fig. 8):
// every site goes to the live node nearest its field coordinate. It is the
// assignment used with the "optimal parameter set" of Fig. 10(a).
func AssignByCoordinate(g *Graph, w *wsn.Network) (Assignment, error) {
	if len(w.Live()) == 0 {
		return Assignment{}, fmt.Errorf("microdeep: no live nodes")
	}
	minP, maxP := fieldBox(w)
	nodeOf := make([]int, len(g.Sites))
	for i, s := range g.Sites {
		nodeOf[i] = nearestLiveNode(w, toField(s.Coord, minP, maxP))
	}
	return Assignment{NodeOf: nodeOf}, nil
}

// BalanceOptions tunes AssignBalanced.
type BalanceOptions struct {
	// LoadFactor sets the hard per-node unit cap to
	// ceil(LoadFactor · totalUnits / liveNodes). 1.0 enforces strict
	// equalization; larger values trade balance for locality.
	LoadFactor float64
	// LoadWeight softly penalizes load below the cap, spreading units
	// even before any node saturates (units per scalar-hop of traffic).
	LoadWeight float64
}

// DefaultBalanceOptions returns the options used in the paper experiments.
func DefaultBalanceOptions() BalanceOptions {
	return BalanceOptions{LoadFactor: 1.3, LoadWeight: 0.5}
}

// AssignBalanced implements the paper's heuristic assignment: equalize the
// number of units per node while maximizing the correspondence of CNN links
// and WSN links (Fig. 10(b)).
//
// The coordinate mapping of Fig. 8 is already the locality optimum — every
// unit sits on the node nearest its receptive field — so the heuristic
// starts there and repairs the load imbalance: while any node exceeds the
// per-node unit cap ceil(LoadFactor·units/liveNodes), the overloaded
// node's computational site whose relocation costs the least extra
// traffic moves to the under-cap node minimizing
//
//	Σ_dep hops(node(dep), n)·width(dep) + Σ_cons hops(n, node(cons))·width(site) + LoadWeight·load(n).
//
// Input sites are pinned to their sensors and never move. Ties break
// toward the lower node ID, so the assignment is deterministic.
func AssignBalanced(g *Graph, w *wsn.Network, opts BalanceOptions) (Assignment, error) {
	live := w.Live()
	if len(live) == 0 {
		return Assignment{}, fmt.Errorf("microdeep: no live nodes")
	}
	if opts.LoadFactor <= 0 {
		opts.LoadFactor = 1.0
	}
	a, err := AssignByCoordinate(g, w)
	if err != nil {
		return Assignment{}, err
	}
	nodeOf := a.NodeOf
	capU := int(math.Ceil(opts.LoadFactor * float64(g.NumUnits()) / float64(len(live))))
	if capU < 1 {
		capU = 1
	}
	load := make([]int, w.NumNodes())
	for i, s := range g.Sites {
		if s.Stage == 0 {
			continue
		}
		load[nodeOf[i]] += s.Width
	}
	// consumers[sid] lists the sites reading sid's output.
	consumers := make([][]int, len(g.Sites))
	for _, s := range g.Sites {
		for _, dep := range s.Deps {
			consumers[dep] = append(consumers[dep], s.ID)
		}
	}
	// commAt scores hosting site s on node n (math.Inf if unreachable). It
	// indexes per-source hop rows directly and sums integer scalar-hops
	// — hop counts and widths are small, so the products stay far below
	// 2^53 and the integer total converts to exactly the float64 the
	// original incremental float summation produced. Only the rows of
	// candidate nodes materialize, never a full N×N matrix.
	// Scratch for the per-site (node, weight) aggregation: deps and
	// consumers grouped by their current host so commAt does one table
	// lookup per distinct node instead of one per edge.
	var aggNode, aggWeight []int
	aggregate := func(s Site) {
		aggNode = aggNode[:0]
		aggWeight = aggWeight[:0]
		add := func(n, weight int) {
			for i, an := range aggNode {
				if an == n {
					aggWeight[i] += weight
					return
				}
			}
			aggNode = append(aggNode, n)
			aggWeight = append(aggWeight, weight)
		}
		for _, dep := range s.Deps {
			add(nodeOf[dep], g.Sites[dep].Width)
		}
		// Consumer hops are symmetric on the undirected WSN graph
		// (hops[n][m] == hops[m][n]), so consumers aggregate into the
		// same per-node buckets.
		for _, c := range consumers[s.ID] {
			add(nodeOf[c], s.Width)
		}
	}
	commAt := func(n int) float64 {
		comm := 0
		hrow := w.HopsRow(n)
		for i, an := range aggNode {
			h := hrow[an]
			if h < 0 {
				return math.Inf(1)
			}
			comm += h * aggWeight[i]
		}
		return float64(comm)
	}
	for {
		// Most-loaded node above the cap.
		over := -1
		for _, n := range live {
			if load[n] > capU && (over < 0 || load[n] > load[over]) {
				over = n
			}
		}
		if over < 0 {
			return Assignment{NodeOf: nodeOf}, nil
		}
		// Cheapest (site, destination) relocation off the overloaded node.
		bestSite, bestDst := -1, -1
		bestDelta := math.Inf(1)
		for _, s := range g.Sites {
			if s.Stage == 0 || nodeOf[s.ID] != over {
				continue
			}
			aggregate(s)
			from := commAt(over)
			for _, n := range live {
				if n == over || load[n]+s.Width > capU {
					continue
				}
				to := commAt(n)
				if math.IsInf(to, 1) {
					continue
				}
				delta := to - from + opts.LoadWeight*float64(load[n])
				if delta < bestDelta || (delta == bestDelta && (n < bestDst || (n == bestDst && s.ID < bestSite))) {
					bestSite, bestDst, bestDelta = s.ID, n, delta
				}
			}
		}
		if bestSite < 0 {
			// No legal move (every other node full): accept the residual
			// imbalance rather than thrash.
			return Assignment{NodeOf: nodeOf}, nil
		}
		load[over] -= g.Sites[bestSite].Width
		load[bestDst] += g.Sites[bestSite].Width
		nodeOf[bestSite] = bestDst
	}
}

// UnitsPerNode returns how many scalar units (site widths, excluding the
// input stage) each node hosts under a.
func UnitsPerNode(g *Graph, a Assignment, numNodes int) []int {
	out := make([]int, numNodes)
	for i, s := range g.Sites {
		if s.Stage == 0 {
			continue
		}
		out[a.NodeOf[i]] += s.Width
	}
	return out
}
