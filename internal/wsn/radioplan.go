package wsn

import (
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
