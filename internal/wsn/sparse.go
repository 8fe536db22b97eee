package wsn

import (
	"math"
	"sort"

	"zeiot/internal/geom"
)

// csr is a compressed sparse row view of the structural connectivity graph:
// the neighbours of node i are list[off[i]:off[i+1]], sorted ascending. The
// structure ignores Failed flags — it records which links exist physically,
// and traversals filter dead endpoints at query time, so a Fail/Recover flip
// never has to touch the adjacency at all.
type csr struct {
	off  []int32
	list []int32
}

func (c *csr) neighbors(i int) []int32 { return c.list[c.off[i]:c.off[i+1]] }

// contains reports whether j is a structural neighbour of i (binary search
// over the sorted row).
func (c *csr) contains(i, j int) bool {
	row := c.neighbors(i)
	k := sort.Search(len(row), func(m int) bool { return row[m] >= int32(j) })
	return k < len(row) && row[k] == int32(j)
}

// MaxLinkDist returns an upper bound on the distance at which a link under
// this plan can close: the range where bare path loss (no walls — walls only
// subtract further) eats the whole budget, or +Inf when path loss never
// grows with distance. Used to size the spatial hash cells of the sparse
// adjacency builder.
func (p RadioPlan) MaxLinkDist() float64 {
	allow := p.TxDBm - p.SensitivityDBm - p.FadeMarginDB - p.Model.RefLossDB
	if allow < 0 {
		return p.Model.RefDist
	}
	if p.Model.Exponent <= 0 {
		return math.Inf(1)
	}
	return p.Model.RefDist * math.Pow(10, allow/(10*p.Model.Exponent))
}

// maxLinkDist returns the link-distance cutoff for the network's
// connectivity predicate (fixed range or radio-plan budget).
func (n *Network) maxLinkDist() float64 {
	if n.plan != nil {
		return n.plan.MaxLinkDist()
	}
	return n.maxRange
}

// linkBand is the relative slack of buildCSR's cell side and squared-distance
// prefilter. It is far wider than the few-ulp rounding of dx²+dy², of the
// cell offsets and of the link predicate itself, so the prefilter can only
// pass extra pairs for link to reject, never drop a pair link accepts.
const linkBand = 0x1p-30

// buildCSR derives the structural adjacency from node positions with a
// uniform spatial hash: cells of side just over maxDist, so every pair link
// can accept lies in a 3×3 cell block. Total work is O(N·deg) instead of an
// O(N²) pair scan; link alone decides every candidate the cheap
// squared-distance prefilter passes.
func buildCSR(nodes []*Node, link func(a, b *Node) bool, maxDist float64) csr {
	n := len(nodes)
	if n == 0 {
		return csr{off: make([]int32, 1)}
	}
	if maxDist <= 0 {
		maxDist = 1
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, nd := range nodes {
		minX = math.Min(minX, nd.Pos.X)
		minY = math.Min(minY, nd.Pos.Y)
		maxX = math.Max(maxX, nd.Pos.X)
		maxY = math.Max(maxY, nd.Pos.Y)
	}
	// The floor of extent·2⁻²⁰ keeps the rounding of the cell offsets far
	// below the band even on fields millions of ranges wide.
	cell := math.Max(maxDist*(1+linkBand), math.Max(maxX-minX, maxY-minY)*0x1p-20)
	cols := int((maxX-minX)/cell) + 1
	rows := int((maxY-minY)/cell) + 1
	cellOf := func(p geom.Point) int {
		cx := int((p.X - minX) / cell)
		cy := int((p.Y - minY) / cell)
		return cy*cols + cx
	}
	// Counting sort of node ids by cell.
	start := make([]int32, rows*cols+1)
	for _, nd := range nodes {
		start[cellOf(nd.Pos)+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	ids := make([]int32, n)
	fill := append([]int32(nil), start[:len(start)-1]...)
	for i, nd := range nodes {
		c := cellOf(nd.Pos)
		ids[fill[c]] = int32(i)
		fill[c]++
	}
	// Enumerate each candidate pair once via a half neighbourhood (same
	// cell i<j, then E, SW, S, SE cells), append both directions.
	tmp := make([][]int32, n)
	// Outside [2⁻⁵⁰⁰, 2⁵⁰⁰] the squares could underflow or overflow, so
	// link decides alone.
	prefilter := maxDist >= 0x1p-500 && maxDist <= 0x1p500
	cutSq := maxDist * maxDist * (1 + linkBand)
	tryPair := func(a, b int32) {
		pa, pb := nodes[a].Pos, nodes[b].Pos
		dx, dy := pa.X-pb.X, pa.Y-pb.Y
		if prefilter && dx*dx+dy*dy > cutSq {
			return
		}
		if !link(nodes[a], nodes[b]) {
			return
		}
		tmp[a] = append(tmp[a], b)
		tmp[b] = append(tmp[b], a)
	}
	half := [4][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}
	for cy := 0; cy < rows; cy++ {
		for cx := 0; cx < cols; cx++ {
			c := cy*cols + cx
			cell := ids[start[c]:start[c+1]]
			for ai, a := range cell {
				for _, b := range cell[ai+1:] {
					tryPair(a, b)
				}
			}
			for _, d := range half {
				nx, ny := cx+d[0], cy+d[1]
				if nx < 0 || nx >= cols || ny >= rows {
					continue
				}
				nc := ny*cols + nx
				other := ids[start[nc]:start[nc+1]]
				for _, a := range cell {
					for _, b := range other {
						tryPair(a, b)
					}
				}
			}
		}
	}
	// Flatten into CSR with ascending rows: every BFS tie-break relies on
	// ascending neighbour order.
	out := csr{off: make([]int32, n+1)}
	total := 0
	for i := range tmp {
		total += len(tmp[i])
	}
	out.list = make([]int32, 0, total)
	for i := range tmp {
		row := tmp[i]
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		out.list = append(out.list, row...)
		out.off[i+1] = int32(len(out.list))
	}
	return out
}
