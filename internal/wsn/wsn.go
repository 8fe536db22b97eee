// Package wsn simulates the wireless sensor networks the paper's systems
// run on: nodes at XY coordinates (Fig. 8), a connectivity graph derived
// from radio range, hop-count routing, and per-node communication counters.
//
// The counters are the paper's Fig. 10 metric: the "communication cost" of
// a node is the number of scalar values it transmits (originating plus
// forwarding) during a pass of the distributed computation. The package
// also provides the two synchronized RSSI measurements of ref. [66]
// (inter-node RSSI and surrounding RSSI), node-failure injection for the
// resilience experiment (E8), and the lossy-link fault layer of fault.go —
// a deterministic seeded LinkFaultModel (independent drops, Gilbert-Elliott
// bursts, per-node brownout windows) with a reliable SendReliable path that
// charges every retransmission.
package wsn

import (
	"errors"
	"fmt"

	"zeiot/internal/geom"
	"zeiot/internal/radio"
	"zeiot/internal/rng"
)

// ErrUnreachable is returned when no route exists between two nodes.
var ErrUnreachable = errors.New("wsn: no route between nodes")

// Node is one sensor node.
type Node struct {
	ID     int
	Pos    geom.Point
	Failed bool
	// TxScalars counts scalar values this node transmitted (as source or
	// forwarder); RxScalars counts values it received (as destination or
	// forwarder).
	TxScalars int
	RxScalars int
}

// Network is a static multi-hop sensor network. Its routing core (shard.go)
// answers hop distances and routes exactly from a structural CSR adjacency
// and lazily built per-shard and per-source BFS state. Queries fill those
// caches, so a Network is not safe for concurrent use.
type Network struct {
	nodes    []*Node
	maxRange float64
	plan     *RadioPlan
	// epoch counts topology changes (Fail/Recover that actually flip a
	// node's state); per-source routing states and memoized routes are
	// valid for one epoch.
	epoch uint64
	// routeHits/routeMisses count Route's memo outcomes over the network's
	// lifetime. Plain integers rather than a recorder hook: Route is a hot
	// path and an increment is free, so the observability layer reads them
	// on demand instead of being called per lookup.
	routeHits   uint64
	routeMisses uint64
	core
}

// New builds a network from node positions; two live nodes are linked when
// within maxRange metres of each other.
func New(positions []geom.Point, maxRange float64) *Network {
	return NewSharded(positions, maxRange, ShardOptions{})
}

// NewSharded is New with an explicit shard tiling. Routing answers do not
// depend on the tiling; tests use small shards to exercise the gateway
// overlay on small fields.
func NewSharded(positions []geom.Point, maxRange float64, opts ShardOptions) *Network {
	if maxRange <= 0 {
		panic("wsn: non-positive range")
	}
	return newNetwork(positions, maxRange, nil, opts)
}

// NewGrid builds a rows×cols grid with the given spacing in metres and
// radio range 1.5×spacing. That range includes the four axial neighbours at
// 1×spacing and the four diagonal neighbours at √2·spacing ≈ 1.41·spacing,
// matching the mesh-like deployments of Fig. 8.
func NewGrid(rows, cols int, spacing float64) *Network {
	return New(gridPositions(rows, cols, spacing), 1.5*spacing)
}

// gridPositions lays out rows×cols nodes row-major at the given spacing.
func gridPositions(rows, cols int, spacing float64) []geom.Point {
	if rows <= 0 || cols <= 0 {
		panic("wsn: non-positive grid dims")
	}
	positions := make([]geom.Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			positions = append(positions, geom.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return positions
}

func newNetwork(positions []geom.Point, maxRange float64, plan *RadioPlan, opts ShardOptions) *Network {
	n := &Network{maxRange: maxRange, plan: plan}
	for i, p := range positions {
		n.nodes = append(n.nodes, &Node{ID: i, Pos: p})
	}
	n.buildCore(opts)
	return n
}

// NumNodes returns the node count, including failed nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Node returns the node with the given id.
func (n *Network) Node(id int) *Node { return n.nodes[id] }

// Nodes returns all nodes. The slice must not be modified.
func (n *Network) Nodes() []*Node { return n.nodes }

// Live returns the ids of non-failed nodes.
func (n *Network) Live() []int {
	var out []int
	for _, nd := range n.nodes {
		if !nd.Failed {
			out = append(out, nd.ID)
		}
	}
	return out
}

// Fail marks a node as broken; it stops linking and forwarding. The repair
// is incremental: only the node's shard tables rebuild (see shard.go).
func (n *Network) Fail(id int) {
	if !n.nodes[id].Failed {
		n.nodes[id].Failed = true
		n.flip(id)
	}
}

// Recover brings a failed node back.
func (n *Network) Recover(id int) {
	if n.nodes[id].Failed {
		n.nodes[id].Failed = false
		n.flip(id)
	}
}

// Epoch returns the topology epoch: it advances on every Fail or Recover
// that flips a node, and on nothing else. Any answer computed from this
// network's routes stays valid while the epoch holds.
func (n *Network) Epoch() uint64 { return n.epoch }

// Linked reports whether i and j are both live and share a direct link.
func (n *Network) Linked(i, j int) bool {
	if n.nodes[i].Failed || n.nodes[j].Failed {
		return false
	}
	return n.adj.contains(i, j)
}

// Hops returns the hop distance between i and j, or -1 if unreachable.
func (n *Network) Hops(i, j int) int {
	st := n.cached(int32(i))
	if st != nil && st.row != nil {
		return st.row[j]
	}
	if n.nodes[i].Failed || n.nodes[j].Failed {
		return -1
	}
	if i == j {
		return 0
	}
	// Hop distances are symmetric: answer from whichever endpoint already
	// has a per-source state.
	if st == nil {
		if st = n.cached(int32(j)); st != nil {
			j = i
		} else {
			st = n.buildSrc(int32(i))
		}
	}
	return n.distFrom(st, int32(j))
}

// HopsRow returns hop distances from src to every node (-1 unreachable).
// The row is shared and valid until the next topology change; callers must
// treat it as read-only.
func (n *Network) HopsRow(src int) []int {
	if st := n.cached(int32(src)); st != nil && st.row != nil {
		return st.row
	}
	return n.buildRow(src)
}

// buildRow materializes src's hops row on its per-source state.
func (n *Network) buildRow(src int) []int {
	row := make([]int, len(n.nodes))
	if n.nodes[src].Failed {
		for i := range row {
			row[i] = -1
		}
		return row
	}
	st := n.ensureSrc(int32(src))
	for t := range row {
		row[t] = n.distFrom(st, int32(t))
	}
	st.row = row
	return row
}

// Route returns the node sequence from i to j inclusive, read back from j's
// search state, so the answer depends only on the topology, never on query
// order. The slice is a memoized view shared by every caller asking for the
// same pair within one topology epoch; it must be treated as read-only.
func (n *Network) Route(i, j int) ([]int, error) {
	if tab := n.memoTo[j]; tab != nil {
		if e := &tab[i]; e.path != nil && e.epoch == n.epoch {
			n.routeHits++
			return e.path, nil
		}
	}
	n.routeMisses++
	if n.nodes[i].Failed || n.nodes[j].Failed {
		return nil, fmt.Errorf("%w: %d -> %d", ErrUnreachable, i, j)
	}
	path := n.pathTo(n.ensureSrc(int32(j)), int32(i))
	if path == nil {
		return nil, fmt.Errorf("%w: %d -> %d", ErrUnreachable, i, j)
	}
	n.memoize(i, j, path)
	return path, nil
}

// RouteCacheStats returns the cumulative hit/miss counts of the route memo
// over the network's lifetime. Topology changes invalidate memoized routes
// but keep the counters, so the numbers describe every lookup the network
// ever served.
func (n *Network) RouteCacheStats() (hits, misses uint64) {
	return n.routeHits, n.routeMisses
}

// RebuildStats reports how much routing state has been computed over the
// network's lifetime: full structural builds (always 1 — the CSR is built
// at construction and flips never force another), per-shard gateway-table
// builds, and per-source overlay searches. Shards without gateways have no
// tables and networks without gateways no overlay, so a one-shard network
// reports (1, 0, 0).
func (n *Network) RebuildStats() (full, shard, overlay uint64) {
	return 1, n.shardBuilds, n.overlayBuilds
}

// NumShards returns the shard count.
func (n *Network) NumShards() int { return len(n.shards) }

// Connected reports whether all live nodes form one component.
func (n *Network) Connected() bool {
	nodes := n.nodes
	first := -1
	live := 0
	for i, nd := range nodes {
		if !nd.Failed {
			live++
			if first < 0 {
				first = i
			}
		}
	}
	if live <= 1 {
		return true
	}
	seen := make([]bool, len(nodes))
	q := n.q[:0]
	seen[first] = true
	q = append(q, int32(first))
	for head := 0; head < len(q); head++ {
		for _, v := range n.adj.neighbors(int(q[head])) {
			if !seen[v] && !nodes[v].Failed {
				seen[v] = true
				q = append(q, v)
			}
		}
	}
	n.q = q[:0]
	return len(q) == live
}

// Send transfers scalars values from node from to node to along the hop
// route, charging every transmitting node's TxScalars and every receiving
// node's RxScalars. Sending to self is free. It returns the number of hops
// used.
func (n *Network) Send(from, to, scalars int) (int, error) {
	if scalars < 0 {
		panic("wsn: negative scalar count")
	}
	if from == to || scalars == 0 {
		return 0, nil
	}
	route, err := n.Route(from, to)
	if err != nil {
		return 0, err
	}
	for k := 0; k+1 < len(route); k++ {
		n.nodes[route[k]].TxScalars += scalars
		n.nodes[route[k+1]].RxScalars += scalars
	}
	return len(route) - 1, nil
}

// ResetCounters zeroes all communication counters.
func (n *Network) ResetCounters() {
	for _, nd := range n.nodes {
		nd.TxScalars = 0
		nd.RxScalars = 0
	}
}

// Cost returns the node's communication cost: scalars transmitted plus
// scalars received. Sensor radios burn comparable energy in both
// directions, so the Fig. 10 "communication cost of a sensor node" counts
// all radio activity.
func (nd *Node) Cost() int { return nd.TxScalars + nd.RxScalars }

// Costs returns each node's communication cost (the Fig. 10 metric).
func (n *Network) Costs() []int {
	out := make([]int, len(n.nodes))
	for i, nd := range n.nodes {
		out[i] = nd.Cost()
	}
	return out
}

// MaxCost returns the maximum per-node communication cost.
func (n *Network) MaxCost() int {
	maxC := 0
	for _, nd := range n.nodes {
		if c := nd.Cost(); c > maxC {
			maxC = c
		}
	}
	return maxC
}

// LinkRSSI is one directed live-link measurement of ref. [66]'s inter-node
// RSSI: the dBm received at To from From. MeasureInterNode returns a slice
// with one entry per directed live link; non-links simply have no entry.
type LinkRSSI struct {
	From, To int
	DBm      float64
}

// MeasureInterNode returns one synchronized sweep of inter-node RSSI over
// all live links: txDBm through model, minus body attenuation for every
// person whose body (radius bodyR) cuts the line of sight.
func (n *Network) MeasureInterNode(model radio.LogDistance, txDBm float64, people []geom.Point, bodyR float64, stream *rng.Stream) []LinkRSSI {
	bodies := radio.NewObstacles(people, bodyR)
	var out []LinkRSSI
	var nbrs []int
	for i := range n.nodes {
		nbrs = n.liveNeighbors(i, nbrs[:0])
		for _, j := range nbrs {
			rssi := model.RSSI(txDBm, 0, 0, geom.Dist(n.nodes[i].Pos, n.nodes[j].Pos), stream)
			rssi -= bodies.LossDB(n.nodes[i].Pos, n.nodes[j].Pos)
			out = append(out, LinkRSSI{From: i, To: j, DBm: rssi})
		}
	}
	return out
}

// MeasureSurrounding returns, per live node, the aggregate power (dBm)
// received from external transmitters (e.g. the phones people carry) — the
// surrounding RSSI of ref. [66]. Nodes out of range of every device report
// the noise floor.
func (n *Network) MeasureSurrounding(model radio.LogDistance, deviceTxDBm float64, devices []geom.Point, noiseDBm float64, stream *rng.Stream) []float64 {
	out := make([]float64, len(n.nodes))
	for i, nd := range n.nodes {
		total := radio.DBmToMilliwatts(noiseDBm)
		if !nd.Failed {
			for _, d := range devices {
				rssi := model.RSSI(deviceTxDBm, 0, 0, geom.Dist(nd.Pos, d), stream)
				total += radio.DBmToMilliwatts(rssi)
			}
		}
		out[i] = radio.MilliwattsToDBm(total)
	}
	return out
}
