package wsn

import (
	"math"
)

// This file implements the routing core behind every Network. The
// deployment area is tiled into shards; nodes with a structural link into
// another shard are that shard's gateways. Exact hop distances are composed
// CRP-style from three ingredients, each built lazily and kept until a flip
// it depends on:
//
//   - per-shard tables: for every gateway of a shard, a BFS over the shard's
//     live nodes giving intra-shard distances and next-hop parents;
//   - an overlay graph over gateways only: clique edges between a shard's
//     gateways weighted by intra-shard distance, plus unit cross edges for
//     structural links between shards;
//   - per-source state: an intra-shard BFS from the source plus one Dijkstra
//     over the overlay, giving exact source→gateway distances.
//
// Hops(s,t) is then min(intra-shard direct, min over gateways g of t's shard
// of dist(s,g) + intraShard(g,t)), which is exact: any shortest path
// decomposes into maximal same-shard runs whose endpoints are gateways, so
// the overlay relaxations dominate it, and every overlay path is realizable.
// A field of up to about defaultShardTarget nodes is one shard without
// gateways: no tables, no overlay, and every query is one BFS per source.
//
// Fail/Recover never rebuild adjacency (the CSR is structural; traversals
// filter dead nodes). A flip bumps its shard's epoch, which scopes the
// repair to that shard's tables, and the network epoch, which invalidates
// every per-source state and memoized route.

// defaultShardTarget is the intended node count per shard tile.
const defaultShardTarget = 1024

// routeMemoLimit bounds the routes memoized at once, and memoTableCells the
// entries of the per-destination tables that hold them; on overflow of
// either the memo is cleared wholesale.
const (
	routeMemoLimit = 8192
	memoTableCells = 1 << 20
)

// srcCacheCells bounds the per-source states held at once, in table cells:
// each source is charged its BFS and overlay arrays plus one cell per node
// for a HopsRow. A new source that would exceed the bound clears the cache
// wholesale first.
const srcCacheCells = 1 << 22

// arenaChunk is the allocation unit of the route path arena.
const arenaChunk = 4096

// ShardOptions configures the routing core's shard tiling.
type ShardOptions struct {
	// TargetShardSize is the intended node count per shard tile; 0 uses
	// defaultShardTarget.
	TargetShardSize int
}

// core is the routing state a Network embeds.
type core struct {
	adj csr
	// shardOf/localOf map node id → shard index and index within the shard.
	shardOf []int32
	localOf []int32
	shards  []*shardState
	// shardEpoch[s] advances on every effective flip of a member of shard s;
	// it decides when s's gateway tables rebuild.
	shardEpoch []uint64
	// gwIdxOf maps node id → global gateway index (-1 for non-gateways);
	// gwNodes/gwRank are the inverse and the gateway's rank in its shard.
	gwIdxOf []int32
	gwNodes []int32
	gwRank  []int32

	// Work counters surfaced via Network.RebuildStats: per-shard table
	// (re)builds and per-source overlay Dijkstra runs.
	shardBuilds   uint64
	overlayBuilds uint64

	// src holds each node's per-source state (nil when none); srcHeld lists
	// the nodes that have one and srcCells their charge against
	// srcCacheCells.
	src      []*srcState
	srcHeld  []int32
	srcCells int

	// memoTo[j][i] is the memoized route i→j (nil path = none); memoTo[j]
	// is nil until the first route into j. memoDests lists the destinations
	// that have a table and memoCount the routes they hold.
	memoTo    [][]memoRoute
	memoDests []int32
	memoCount int
	// pathArena backs memoized route paths. A full chunk is replaced by a
	// fresh one, never reused, so a route slice handed out earlier keeps
	// its contents.
	pathArena []int

	// scratch
	q    []int32
	heap []uint64
}

// shardState is one tile's lazily built routing tables.
type shardState struct {
	nodes []int32 // member node ids, ascending
	gws   []int32 // gateway node ids, ascending (structural property)
	// built is the shard epoch the tables below were computed at.
	built uint64
	// dist[r][l] is the live intra-shard hop distance from gateway rank r to
	// local node l (-1 unreachable or dead); next[r][l] is the global id of
	// the neighbour one hop closer to that gateway. nil until first built.
	dist [][]int32
	next [][]int32
}

// srcState caches one source's exact routing state: an intra-shard BFS,
// plus an overlay Dijkstra when the network has gateways. Valid while epoch
// matches the network's.
type srcState struct {
	src   int32
	epoch uint64
	// intraDist/intraPrev are BFS results over the source's shard (local
	// indices; prev holds global ids one hop closer to the source).
	intraDist []int32
	intraPrev []int32
	// gwDist/gwPrev are exact distances source→gateway over the whole live
	// network (global gateway indices; prev -1 for seeds).
	gwDist []int32
	gwPrev []int32
	// row is the lazily materialized full hops row (HopsRow).
	row []int
}

// memoRoute is one memoized route and the network epoch it was found at.
type memoRoute struct {
	path  []int
	epoch uint64
}

// buildCore derives the CSR adjacency, tiles the bounding box into a k×k
// grid of shards sized for ~TargetShardSize nodes each, and finds the
// gateways.
func (n *Network) buildCore(opts ShardOptions) {
	target := opts.TargetShardSize
	if target <= 0 {
		target = defaultShardTarget
	}
	n.adj = buildCSR(n.nodes, n.linkExists, n.maxLinkDist())

	size := len(n.nodes)
	k := int(math.Ceil(math.Sqrt(float64(size) / float64(target))))
	if k < 1 {
		k = 1
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, nd := range n.nodes {
		minX = math.Min(minX, nd.Pos.X)
		minY = math.Min(minY, nd.Pos.Y)
		maxX = math.Max(maxX, nd.Pos.X)
		maxY = math.Max(maxY, nd.Pos.Y)
	}
	spanX, spanY := maxX-minX, maxY-minY
	tile := func(v, lo, span float64) int {
		if span <= 0 {
			return 0
		}
		t := int(float64(k) * (v - lo) / span)
		if t >= k {
			t = k - 1
		}
		return t
	}
	n.shardOf = make([]int32, size)
	n.localOf = make([]int32, size)
	n.shards = make([]*shardState, k*k)
	n.shardEpoch = make([]uint64, k*k)
	for s := range n.shards {
		n.shards[s] = &shardState{}
	}
	for i, nd := range n.nodes {
		s := int32(tile(nd.Pos.Y, minY, spanY)*k + tile(nd.Pos.X, minX, spanX))
		n.shardOf[i] = s
		st := n.shards[s]
		n.localOf[i] = int32(len(st.nodes))
		st.nodes = append(st.nodes, int32(i))
	}
	// Gateways: nodes with at least one structural cross-shard link.
	// Scanning node ids ascending keeps gwNodes and every shard's gws sorted.
	n.gwIdxOf = make([]int32, size)
	for i := 0; i < size; i++ {
		n.gwIdxOf[i] = -1
		for _, v := range n.adj.neighbors(i) {
			if n.shardOf[v] != n.shardOf[i] {
				n.gwIdxOf[i] = int32(len(n.gwNodes))
				n.gwNodes = append(n.gwNodes, int32(i))
				st := n.shards[n.shardOf[i]]
				n.gwRank = append(n.gwRank, int32(len(st.gws)))
				st.gws = append(st.gws, int32(i))
				break
			}
		}
	}
	n.src = make([]*srcState, size)
	n.memoTo = make([][]memoRoute, size)
}

// flip records one effective Fail/Recover: the network epoch and the
// flipped node's shard epoch move.
func (n *Network) flip(id int) {
	n.epoch++
	n.shardEpoch[n.shardOf[id]]++
}

// ensureShard returns shard s with its gateway tables current. A shard
// without gateways has no tables.
func (n *Network) ensureShard(s int32) *shardState {
	st := n.shards[s]
	if len(st.gws) > 0 && (st.dist == nil || st.built != n.shardEpoch[s]) {
		n.buildShard(s, st)
	}
	return st
}

// buildShard (re)builds shard s's gateway tables.
func (n *Network) buildShard(s int32, st *shardState) {
	n.shardBuilds++
	if st.dist == nil {
		st.dist = make([][]int32, len(st.gws))
		st.next = make([][]int32, len(st.gws))
		for r := range st.gws {
			st.dist[r] = make([]int32, len(st.nodes))
			st.next[r] = make([]int32, len(st.nodes))
		}
	}
	for r, g := range st.gws {
		n.shardBFS(s, g, st.dist[r], st.next[r])
	}
	st.built = n.shardEpoch[s]
}

// shardBFS runs a BFS from root over shard s's live members, filling dist
// (local indices, -1 unreached) and prev (the global id one hop closer to
// root, -1 for root and unreached). Neighbour order is ascending (CSR rows
// are sorted), so each node's parent is its first-dequeued neighbour.
func (n *Network) shardBFS(s, root int32, dist, prev []int32) {
	for l := range dist {
		dist[l] = -1
		prev[l] = -1
	}
	if n.nodes[root].Failed {
		return
	}
	nodes := n.nodes
	members := n.shards[s].nodes
	q := n.q[:0]
	lr := n.localOf[root]
	dist[lr] = 0
	q = append(q, lr)
	for head := 0; head < len(q); head++ {
		lu := q[head]
		gu := members[lu]
		for _, gv := range n.adj.neighbors(int(gu)) {
			if n.shardOf[gv] != s || nodes[gv].Failed {
				continue
			}
			lv := n.localOf[gv]
			if dist[lv] != -1 {
				continue
			}
			dist[lv] = dist[lu] + 1
			prev[lv] = gu
			q = append(q, lv)
		}
	}
	n.q = q[:0]
}

// cached returns the valid per-source state for src, or nil.
func (n *Network) cached(src int32) *srcState {
	if st := n.src[src]; st != nil && st.epoch == n.epoch {
		return st
	}
	return nil
}

// ensureSrc returns the per-source state for a live source, building it on
// miss or staleness.
func (n *Network) ensureSrc(src int32) *srcState {
	if st := n.cached(src); st != nil {
		return st
	}
	return n.buildSrc(src)
}

// buildSrc runs src's intra-shard BFS, plus an overlay Dijkstra when the
// network has gateways, reusing the arrays of src's stale state if it has
// one.
func (n *Network) buildSrc(src int32) *srcState {
	si := n.shardOf[src]
	S := n.ensureShard(si)
	ngw := len(n.gwNodes)
	st := n.src[src]
	if st == nil {
		cells := 2*len(S.nodes) + 2*ngw + len(n.nodes)
		if n.srcCells+cells > srcCacheCells {
			for _, id := range n.srcHeld {
				n.src[id] = nil
			}
			n.srcHeld = n.srcHeld[:0]
			n.srcCells = 0
		}
		n.srcHeld = append(n.srcHeld, src)
		n.srcCells += cells
		st = &srcState{
			src:       src,
			intraDist: make([]int32, len(S.nodes)),
			intraPrev: make([]int32, len(S.nodes)),
			gwDist:    make([]int32, ngw),
			gwPrev:    make([]int32, ngw),
		}
		n.src[src] = st
	}
	st.epoch = n.epoch
	st.row = nil
	n.shardBFS(si, src, st.intraDist, st.intraPrev)
	if ngw == 0 {
		return st
	}
	// Overlay Dijkstra over gateways. Heap keys pack (dist, gateway index)
	// so ties break on the lower index — fully deterministic.
	n.overlayBuilds++
	nodes := n.nodes
	for i := range st.gwDist {
		st.gwDist[i] = -1
		st.gwPrev[i] = -1
	}
	h := n.heap[:0]
	relax := func(from, to, d int32) {
		if st.gwDist[to] < 0 || d < st.gwDist[to] {
			st.gwDist[to] = d
			st.gwPrev[to] = from
			h = heapPush(h, uint64(uint32(d))<<32|uint64(uint32(to)))
		}
	}
	for _, g := range S.gws {
		if d := st.intraDist[n.localOf[g]]; d >= 0 {
			gi := n.gwIdxOf[g]
			st.gwDist[gi] = d
			h = heapPush(h, uint64(uint32(d))<<32|uint64(uint32(gi)))
		}
	}
	for len(h) > 0 {
		var key uint64
		key, h = heapPop(h)
		d := int32(key >> 32)
		gi := int32(uint32(key))
		if d > st.gwDist[gi] {
			continue // stale heap entry
		}
		g := n.gwNodes[gi]
		T := n.ensureShard(n.shardOf[g])
		// Clique edges: intra-shard distances to the shard's other gateways.
		drow := T.dist[n.gwRank[gi]]
		for _, g2 := range T.gws {
			if w := drow[n.localOf[g2]]; g2 != g && w >= 0 {
				relax(gi, n.gwIdxOf[g2], d+w)
			}
		}
		// Cross edges: unit-weight structural links into other shards.
		if nodes[g].Failed {
			continue
		}
		for _, v := range n.adj.neighbors(int(g)) {
			if n.shardOf[v] != n.shardOf[g] && !nodes[v].Failed {
				relax(gi, n.gwIdxOf[v], d+1) // cross-linked ⇒ v is a gateway
			}
		}
	}
	n.heap = h[:0]
	return st
}

// distFrom returns the exact hop distance from st.src to t (-1 unreachable).
func (n *Network) distFrom(st *srcState, t int32) int {
	if st.row != nil {
		return st.row[t]
	}
	if n.nodes[t].Failed {
		return -1
	}
	best := int32(-1)
	ti := n.shardOf[t]
	if ti == n.shardOf[st.src] {
		best = st.intraDist[n.localOf[t]]
	}
	if len(n.shards[ti].gws) == 0 {
		return int(best)
	}
	T := n.ensureShard(ti)
	lt := n.localOf[t]
	for r, g := range T.gws {
		dg := st.gwDist[n.gwIdxOf[g]]
		dt := T.dist[r][lt]
		if dg < 0 || dt < 0 {
			continue
		}
		if c := dg + dt; best < 0 || c < best {
			best = c
		}
	}
	return int(best)
}

// pathTo returns one shortest path from t to st.src, t first, or nil when
// t is unreachable. It follows st.src's search state backwards: the direct
// intra-shard path if it attains the distance, else the leg to the
// lowest-ranked gateway of t's shard that does, the overlay chain back to
// the source's shard and the intra-shard leg to the source.
func (n *Network) pathTo(st *srcState, t int32) []int {
	total := n.distFrom(st, t)
	if total < 0 {
		return nil
	}
	path := carve(&n.pathArena, total+1)
	ti := n.shardOf[t]
	if ti == n.shardOf[st.src] && st.intraDist[n.localOf[t]] == int32(total) {
		return n.walkIntra(st, t, path)
	}
	T := n.ensureShard(ti)
	lt := n.localOf[t]
	for r, g := range T.gws {
		gi := n.gwIdxOf[g]
		dg, dt := st.gwDist[gi], T.dist[r][lt]
		if dg < 0 || dt < 0 || dg+dt != int32(total) {
			continue
		}
		for cur := t; cur != g; cur = T.next[r][n.localOf[cur]] {
			path = append(path, int(cur))
		}
		// Each overlay edge prev→gi is a unit cross link, or a clique edge
		// realized as the walk from prev's gateway down gi's search tree;
		// that walk is appended reversed.
		for prev := st.gwPrev[gi]; prev >= 0; gi, prev = prev, st.gwPrev[prev] {
			ga, gb := n.gwNodes[prev], n.gwNodes[gi]
			if n.shardOf[ga] != n.shardOf[gb] {
				path = append(path, int(gb))
				continue
			}
			next := n.shards[n.shardOf[ga]].next[n.gwRank[gi]]
			mark := len(path)
			for cur := ga; cur != gb; {
				cur = next[n.localOf[cur]]
				path = append(path, int(cur))
			}
			reverseInts(path[mark:])
		}
		return n.walkIntra(st, n.gwNodes[gi], path)
	}
	return nil // unreachable given total >= 0; defensive
}

// walkIntra appends the intra-shard path from v to st.src, both inclusive.
func (n *Network) walkIntra(st *srcState, v int32, path []int) []int {
	for ; v != st.src; v = st.intraPrev[n.localOf[v]] {
		path = append(path, int(v))
	}
	return append(path, int(st.src))
}

// memoize stores path as the route i→j at the current epoch.
func (n *Network) memoize(i, j int, path []int) {
	newTable := n.memoTo[j] == nil
	if n.memoCount >= routeMemoLimit || newTable && (len(n.memoDests)+1)*len(n.nodes) > memoTableCells {
		for _, d := range n.memoDests {
			n.memoTo[d] = nil
		}
		n.memoDests = n.memoDests[:0]
		n.memoCount = 0
	}
	tab := n.memoTo[j]
	if tab == nil { // new, or dropped by the clear above
		tab = make([]memoRoute, len(n.nodes))
		n.memoTo[j] = tab
		n.memoDests = append(n.memoDests, int32(j))
	}
	if tab[i].path == nil {
		n.memoCount++
	}
	tab[i] = memoRoute{path: path, epoch: n.epoch}
}

// liveNeighbors appends i's live neighbours to buf and returns it.
func (n *Network) liveNeighbors(i int, buf []int) []int {
	nodes := n.nodes
	if nodes[i].Failed {
		return buf
	}
	for _, v := range n.adj.neighbors(i) {
		if !nodes[v].Failed {
			buf = append(buf, int(v))
		}
	}
	return buf
}

// --- small helpers ---

// carve returns an empty slice with capacity size from the chunked arena
// *a, allocating a fresh chunk when the current one is full.
func carve(a *[]int, size int) []int {
	if cap(*a)-len(*a) < size {
		*a = make([]int, 0, max(arenaChunk, size))
	}
	lo := len(*a)
	*a = (*a)[:lo+size]
	return (*a)[lo : lo : lo+size]
}

func reverseInts(s []int) {
	for a, b := 0, len(s)-1; a < b; a, b = a+1, b-1 {
		s[a], s[b] = s[b], s[a]
	}
}

// heapPush/heapPop maintain a binary min-heap over packed (dist<<32 | index)
// keys — allocation-free and with deterministic tie-breaking by index.
func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) (uint64, []uint64) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top, h
}
