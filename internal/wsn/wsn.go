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
	"sort"
	"sync/atomic"

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

// networkSeq issues process-unique network identities; see Network.ID.
var networkSeq atomic.Uint64

// Network is a static multi-hop sensor network.
type Network struct {
	// id is a process-unique identity assigned at construction. Caches key
	// on it instead of the *Network pointer, so a freed network's reused
	// address can never alias a live cache entry.
	id       uint64
	nodes    []*Node
	maxRange float64
	plan     *RadioPlan
	adj      [][]int
	hops     [][]int
	next     [][]int
	dirty    bool
	// Dense-core scratch, reused across rebuilds: the flat backing arrays of
	// hops/next and the BFS queue. nil until the first rebuild sizes them.
	hopsBuf []int
	nextBuf []int
	queue   []int
	// denseRebuilds counts full all-pairs rebuilds (RebuildStats).
	denseRebuilds uint64
	// sh is the hierarchical sharded routing core (shard.go). When non-nil,
	// every routing query dispatches to it and the dense tables above stay
	// empty; small networks keep sh nil and the original dense path.
	sh *shardCore
	// epoch counts topology changes (Fail/Recover that actually flip a
	// node's state). Callers that cache route- or plan-derived data key it
	// on TopologyEpoch and invalidate when the value moves.
	epoch uint64
	// routes memoizes Route results as views into routeArena (index
	// i*len(nodes)+j). The arena is replaced — never truncated — on
	// rebuild, so previously handed-out route slices stay valid snapshots.
	routes     [][]int
	routeArena []int
	// routeHits/routeMisses count Route's memo outcomes over the network's
	// lifetime (cumulative across topology rebuilds). Plain integers rather
	// than a recorder hook: Route is a hot path and an increment is free,
	// so the observability layer reads them on demand instead of being
	// called per lookup.
	routeHits   uint64
	routeMisses uint64
}

// New builds a network from node positions; two live nodes are linked when
// within maxRange metres of each other. At AutoShardThreshold nodes and
// above it switches to the hierarchical sharded core (see shard.go), which
// answers the same queries exactly without dense N×N tables.
func New(positions []geom.Point, maxRange float64) *Network {
	if len(positions) >= AutoShardThreshold {
		return NewSharded(positions, maxRange, ShardOptions{})
	}
	if maxRange <= 0 {
		panic("wsn: non-positive range")
	}
	n := &Network{id: networkSeq.Add(1), maxRange: maxRange}
	for i, p := range positions {
		n.nodes = append(n.nodes, &Node{ID: i, Pos: p})
	}
	n.rebuild()
	return n
}

// NewGrid builds a rows×cols grid with the given spacing in metres and
// radio range 1.5×spacing. That range includes the four axial neighbours at
// 1×spacing and the four diagonal neighbours at √2·spacing ≈ 1.41·spacing,
// matching the mesh-like deployments of Fig. 8.
func NewGrid(rows, cols int, spacing float64) *Network {
	if rows <= 0 || cols <= 0 {
		panic("wsn: non-positive grid dims")
	}
	positions := make([]geom.Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			positions = append(positions, geom.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return New(positions, 1.5*spacing)
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

// Fail marks a node as broken; it stops linking and forwarding. On the
// sharded core this is incremental: only the node's shard epoch (and the
// per-source overlay caches) are invalidated, never the whole table set.
func (n *Network) Fail(id int) {
	if !n.nodes[id].Failed {
		n.nodes[id].Failed = true
		n.epoch++
		if n.sh != nil {
			n.sh.flip(id, false)
		} else {
			n.dirty = true
		}
	}
}

// Recover brings a failed node back.
func (n *Network) Recover(id int) {
	if n.nodes[id].Failed {
		n.nodes[id].Failed = false
		n.epoch++
		if n.sh != nil {
			n.sh.flip(id, true)
		} else {
			n.dirty = true
		}
	}
}

// ID returns this network's process-unique identity: a monotonic counter
// assigned at construction and never reused, safe to key caches on where a
// raw pointer could alias a freed network's recycled address.
func (n *Network) ID() uint64 { return n.id }

// TopologyEpoch returns a counter that advances on every effective Fail or
// Recover. Two calls returning the same value bracket a window in which
// the connectivity graph — and therefore every hop count and route — was
// unchanged, so derived caches keyed on it stay coherent.
func (n *Network) TopologyEpoch() uint64 { return n.epoch }

func (n *Network) rebuild() {
	size := len(n.nodes)
	n.denseRebuilds++
	// First rebuild sizes the scratch; later rebuilds (topology flips)
	// reuse it. Safe because HopsTable and Neighbors hand out views that
	// are only valid until the next topology change — unlike Route's arena,
	// whose slices must survive rebuilds and therefore stay freshly
	// allocated (see below).
	if n.adj == nil {
		n.adj = make([][]int, size)
		flat := make([]int, 2*size*size)
		n.hopsBuf, n.nextBuf = flat[:size*size], flat[size*size:]
		n.hops = make([][]int, size)
		n.next = make([][]int, size)
		for s := 0; s < size; s++ {
			n.hops[s] = n.hopsBuf[s*size : (s+1)*size : (s+1)*size]
			n.next[s] = n.nextBuf[s*size : (s+1)*size : (s+1)*size]
		}
		n.queue = make([]int, 0, size)
		n.routes = make([][]int, size*size)
	}
	for i := 0; i < size; i++ {
		n.adj[i] = n.adj[i][:0]
		if n.nodes[i].Failed {
			continue
		}
		for j := 0; j < size; j++ {
			if i == j || n.nodes[j].Failed {
				continue
			}
			if n.linkExists(n.nodes[i], n.nodes[j]) {
				n.adj[i] = append(n.adj[i], j)
			}
		}
	}
	// BFS from every node for hop counts and first-hop routing.
	queue := n.queue
	for s := 0; s < size; s++ {
		h := n.hops[s]
		nx := n.next[s]
		for i := range h {
			h[i] = -1
			nx[i] = -1
		}
		if n.nodes[s].Failed {
			continue
		}
		h[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range n.adj[u] {
				if h[v] != -1 {
					continue
				}
				h[v] = h[u] + 1
				if u == s {
					nx[v] = v
				} else {
					nx[v] = nx[u]
				}
				queue = append(queue, v)
			}
		}
	}
	n.queue = queue[:0]
	// Reset the route memo. The arena is freshly allocated rather than
	// truncated: route slices handed out before the rebuild must keep
	// their contents.
	clear(n.routes)
	n.routeArena = nil
	n.dirty = false
}

func (n *Network) ensure() {
	if n.dirty {
		n.rebuild()
	}
}

// Linked reports whether i and j share a direct link. Adjacency rows are
// sorted ascending (the dense builder scans j ascending; CSR rows are
// sorted), so this is a binary search instead of the old linear scan —
// the difference matters in dense deployments where degree approaches N.
func (n *Network) Linked(i, j int) bool {
	if n.sh != nil {
		return n.sh.linked(i, j)
	}
	n.ensure()
	row := n.adj[i]
	k := sort.SearchInts(row, j)
	return k < len(row) && row[k] == j
}

// Neighbors returns the direct neighbours of i. The slice is shared with
// the network and valid until the next topology change; callers must treat
// it as read-only. On the sharded core it is allocated per call.
func (n *Network) Neighbors(i int) []int {
	if n.sh != nil {
		return n.sh.liveNeighbors(i, nil)
	}
	n.ensure()
	return n.adj[i]
}

// Hops returns the hop distance between i and j, or -1 if unreachable.
func (n *Network) Hops(i, j int) int {
	if n.sh != nil {
		return n.sh.hops(i, j)
	}
	n.ensure()
	return n.hops[i][j]
}

// HopsTable returns the full hop-distance matrix indexed [from][to], with
// -1 for unreachable pairs. The table is shared with the network and valid
// until the next topology change; callers must treat it as read-only.
// Sharded networks materialize the matrix on demand — at crowd scale that
// is quadratic, so scale-aware callers should use HopsRow or Hops instead.
func (n *Network) HopsTable() [][]int {
	if n.sh != nil {
		out := make([][]int, len(n.nodes))
		for i := range out {
			out[i] = n.sh.hopsRow(i)
		}
		return out
	}
	n.ensure()
	return n.hops
}

// HopsRow returns hop distances from src to every node (-1 unreachable).
// The row is shared and valid until the next topology change; callers must
// treat it as read-only. Unlike HopsTable this stays cheap on the sharded
// core: one per-source state serves the whole row.
func (n *Network) HopsRow(src int) []int {
	if n.sh != nil {
		return n.sh.hopsRow(src)
	}
	n.ensure()
	return n.hops[src]
}

// Route returns the node sequence from i to j inclusive. The slice is a
// memoized view shared by every caller asking for the same pair under the
// current topology; it must be treated as read-only.
func (n *Network) Route(i, j int) ([]int, error) {
	if n.sh != nil {
		return n.sh.route(i, j)
	}
	n.ensure()
	if n.hops[i][j] < 0 {
		return nil, fmt.Errorf("%w: %d -> %d", ErrUnreachable, i, j)
	}
	idx := i*len(n.nodes) + j
	if r := n.routes[idx]; r != nil {
		n.routeHits++
		return r, nil
	}
	n.routeMisses++
	start := len(n.routeArena)
	n.routeArena = append(n.routeArena, i)
	cur := i
	for cur != j {
		cur = n.next[cur][j]
		n.routeArena = append(n.routeArena, cur)
	}
	r := n.routeArena[start:len(n.routeArena):len(n.routeArena)]
	n.routes[idx] = r
	return r, nil
}

// RouteCacheStats returns the cumulative hit/miss counts of the route memo
// over the network's lifetime. A rebuild (Fail/Recover) empties the memo but
// keeps the counters, so the numbers describe every lookup the network ever
// served.
func (n *Network) RouteCacheStats() (hits, misses uint64) {
	return n.routeHits, n.routeMisses
}

// RouteCacheStats is defined below; RebuildStats complements it with how
// much routing state has been recomputed over the network's lifetime:
// full all-pairs (dense) or structural (sharded) builds, per-shard table
// builds, and per-source overlay builds. On the dense core only full moves;
// on the sharded core full stays at 1 — flips must never force another —
// while shard and overlay count the incremental repair work.
func (n *Network) RebuildStats() (full, shard, overlay uint64) {
	if n.sh != nil {
		return n.sh.fullBuilds, n.sh.shardBuilds, n.sh.overlayBuilds
	}
	return n.denseRebuilds, 0, 0
}

// Sharded reports whether this network runs on the hierarchical core.
func (n *Network) Sharded() bool { return n.sh != nil }

// NumShards returns the shard count (0 for dense networks).
func (n *Network) NumShards() int {
	if n.sh == nil {
		return 0
	}
	return len(n.sh.shards)
}

// ShardOf returns the shard index of a node, or -1 on dense networks.
func (n *Network) ShardOf(id int) int {
	if n.sh == nil {
		return -1
	}
	return int(n.sh.shardOf[id])
}

// ShardEpoch returns the given shard's epoch: it advances only when a node
// of that shard flips, so caches keyed on the epochs of the shards they
// touch survive unrelated churn (0 for dense networks).
func (n *Network) ShardEpoch(shard int) uint64 {
	if n.sh == nil {
		return 0
	}
	return n.sh.shards[shard].epoch
}

// RecoverGen advances on every effective Recover. Caches that key on
// touched-shard epochs must also key on this: a recovery can shorten routes
// in shards it does not belong to, whereas a Fail cannot (0 for dense
// networks, whose TopologyEpoch keying already covers both).
func (n *Network) RecoverGen() uint64 {
	if n.sh == nil {
		return 0
	}
	return n.sh.recoverGen
}

// Connected reports whether all live nodes form one component.
func (n *Network) Connected() bool {
	if n.sh != nil {
		return n.sh.connected()
	}
	n.ensure()
	live := n.Live()
	if len(live) <= 1 {
		return true
	}
	s := live[0]
	for _, v := range live[1:] {
		if n.hops[s][v] < 0 {
			return false
		}
	}
	return true
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

// TotalCost returns the sum of per-node communication costs.
func (n *Network) TotalCost() int {
	t := 0
	for _, nd := range n.nodes {
		t += nd.Cost()
	}
	return t
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
	n.ensure()
	bodies := radio.NewObstacles(people, bodyR)
	var out []LinkRSSI
	var scratch []int
	for i := range n.nodes {
		if n.nodes[i].Failed {
			continue
		}
		var nbrs []int
		if n.sh != nil {
			scratch = n.sh.liveNeighbors(i, scratch[:0])
			nbrs = scratch
		} else {
			nbrs = n.adj[i]
		}
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
