package wsn

import (
	"fmt"
	"math"

	"zeiot/internal/geom"
	"zeiot/internal/radio"
)

// Wall is a static obstacle (partition, shelving, concrete) that
// attenuates every radio link crossing it. Walls are the "3D map and
// obstacle information" input of the paper's §V design-support challenge,
// reduced to the 2-D plane the simulators use.
type Wall struct {
	A, B   geom.Point
	LossDB float64
}

// RadioPlan derives link existence from a propagation model instead of a
// fixed range: a link exists when the deterministic received power — path
// loss plus the losses of every wall the link crosses, minus a fade margin
// — stays above the receiver sensitivity.
type RadioPlan struct {
	Model radio.LogDistance
	// TxDBm is the node transmit power; SensitivityDBm the receive
	// threshold; FadeMarginDB headroom for shadowing/fading.
	TxDBm          float64
	SensitivityDBm float64
	FadeMarginDB   float64
	Walls          []Wall
}

// DefaultRadioPlan returns a 0 dBm / −90 dBm ZigBee-class plan with a
// 10 dB fade margin and no walls.
func DefaultRadioPlan() RadioPlan {
	return RadioPlan{
		Model:          radio.LogDistance{RefLossDB: 40, RefDist: 1, Exponent: 2.8},
		TxDBm:          0,
		SensitivityDBm: -90,
		FadeMarginDB:   10,
	}
}

// LinkBudgetDBm returns the deterministic received power of the a→b link,
// wall losses included.
func (p RadioPlan) LinkBudgetDBm(a, b geom.Point) float64 {
	rssi := p.TxDBm - p.Model.PathLossDB(geom.Dist(a, b))
	for _, wall := range p.Walls {
		if geom.SegmentsIntersect(a, b, wall.A, wall.B) {
			rssi -= wall.LossDB
		}
	}
	return rssi
}

// Usable reports whether the a→b link closes with the fade margin.
func (p RadioPlan) Usable(a, b geom.Point) bool {
	return p.LinkBudgetDBm(a, b) >= p.SensitivityDBm+p.FadeMarginDB
}

// NewFromRadioPlan builds a network whose links are exactly the usable
// ones under the plan — the automated network-construction step of the
// design-support environment.
func NewFromRadioPlan(positions []geom.Point, plan RadioPlan) *Network {
	return newNetwork(positions, -1, &plan, ShardOptions{})
}

// linkExists is the connectivity predicate: the one rule for which node
// pairs share a link.
func (n *Network) linkExists(a, b *Node) bool {
	if n.plan != nil {
		return n.plan.Usable(a.Pos, b.Pos)
	}
	return geom.Dist(a.Pos, b.Pos) <= n.maxRange
}

// SuggestRelays proposes relay positions that reconnect a partitioned
// deployment under the plan: while more than one component exists, it
// places a relay at the midpoint of the closest inter-component node pair
// (walking the midpoint toward whichever side it cannot reach until both
// links close), up to maxRelays. It returns the relay positions and the
// repaired network, or an error when the gap cannot be bridged within the
// budget — the automated "recovery method" step of the paper's §V
// design-support loop.
func SuggestRelays(positions []geom.Point, plan RadioPlan, maxRelays int) ([]geom.Point, *Network, error) {
	all := append([]geom.Point(nil), positions...)
	var relays []geom.Point
	for len(relays) <= maxRelays {
		net := NewFromRadioPlan(all, plan)
		comp := components(net)
		if comp <= 1 {
			return relays, net, nil
		}
		if len(relays) == maxRelays {
			break
		}
		a, b, found := closestCrossPair(net)
		if !found {
			break
		}
		// Scan candidate positions along the a→b segment. A spot reaching
		// both sides wins outright; otherwise take the spot reaching one
		// side that pushes farthest into the gap (so wide gaps bridge by
		// chaining relays across iterations).
		at := func(t float64) geom.Point {
			return geom.Point{X: a.X + t*(b.X-a.X), Y: a.Y + t*(b.Y-a.Y)}
		}
		var best geom.Point
		bestScore := 0
		bestReach := -1.0
		for i := 1; i < 40; i++ {
			t := float64(i) / 40
			cand := at(t)
			fromA := plan.Usable(cand, a)
			fromB := plan.Usable(cand, b)
			switch {
			case fromA && fromB:
				best, bestScore = cand, 2
			case bestScore == 2:
				// keep the both-sides winner
			case fromA && t > bestReach:
				best, bestScore, bestReach = cand, 1, t
			case fromB && (1-t) > bestReach:
				best, bestScore, bestReach = cand, 1, 1-t
			}
			if bestScore == 2 {
				break
			}
		}
		if bestScore == 0 {
			return relays, nil, fmt.Errorf("wsn: no relay position reaches either side of the gap")
		}
		relays = append(relays, best)
		all = append(all, best)
	}
	return relays, nil, fmt.Errorf("wsn: still partitioned after %d relays", maxRelays)
}

// components counts connected components over live nodes.
func components(n *Network) int {
	seen := make(map[int]bool)
	count := 0
	for _, id := range n.Live() {
		if seen[id] {
			continue
		}
		count++
		stack := []int{id}
		seen[id] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range n.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return count
}

// closestCrossPair returns the closest pair of live nodes in different
// components.
func closestCrossPair(n *Network) (a, b geom.Point, found bool) {
	live := n.Live()
	bestD := math.Inf(1)
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			u, v := live[i], live[j]
			if n.Hops(u, v) >= 0 {
				continue // same component
			}
			d := geom.Dist(n.Node(u).Pos, n.Node(v).Pos)
			if d < bestD {
				bestD = d
				a, b = n.Node(u).Pos, n.Node(v).Pos
				found = true
			}
		}
	}
	return a, b, found
}
