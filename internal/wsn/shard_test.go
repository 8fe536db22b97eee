package wsn

import (
	"math"
	"slices"
	"testing"

	"zeiot/internal/geom"
	"zeiot/internal/rng"
)

// oracle is the all-pairs reference the routing core is checked against: an
// O(N²) linkExists scan over live nodes and one BFS per source. Neighbours
// are scanned in ascending order, so next[s][v] is the first hop of the
// lexicographically smallest shortest path from s to v.
type oracle struct {
	adj  [][]int
	hops [][]int
	next [][]int
}

func newOracle(n *Network) *oracle {
	size := n.NumNodes()
	o := &oracle{adj: make([][]int, size), hops: make([][]int, size), next: make([][]int, size)}
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if i != j && !n.nodes[i].Failed && !n.nodes[j].Failed && n.linkExists(n.nodes[i], n.nodes[j]) {
				o.adj[i] = append(o.adj[i], j)
			}
		}
	}
	for s := 0; s < size; s++ {
		h, nx := make([]int, size), make([]int, size)
		for i := range h {
			h[i], nx[i] = -1, -1
		}
		o.hops[s], o.next[s] = h, nx
		if n.nodes[s].Failed {
			continue
		}
		h[s] = 0
		queue := []int{s}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range o.adj[u] {
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
	return o
}

func (o *oracle) linked(i, j int) bool { return slices.Contains(o.adj[i], j) }

// route returns the oracle's lexicographically smallest shortest path i→j.
func (o *oracle) route(i, j int) []int {
	path := []int{i}
	for cur := i; cur != j; {
		cur = o.next[cur][j]
		path = append(path, cur)
	}
	return path
}

// checkMatchesOracle asserts, for every (i, j) pair, that the network's
// links and hop distances equal the oracle's, and that its routes are valid
// shortest paths (endpoints, length == hops, consecutive links, no failed
// nodes). Node sequences are not compared: several shortest paths can exist
// and a multi-shard network realizes them through its gateways — the
// metric, not the tie-break, is the contract.
func checkMatchesOracle(t *testing.T, n *Network, tag string) {
	t.Helper()
	o := newOracle(n)
	size := n.NumNodes()
	for i := 0; i < size; i++ {
		for j := 0; j < size; j++ {
			if got, want := n.Linked(i, j), o.linked(i, j); got != want {
				t.Fatalf("%s: Linked(%d,%d) = %v, oracle = %v", tag, i, j, got, want)
			}
			want := o.hops[i][j]
			if got := n.Hops(i, j); got != want {
				t.Fatalf("%s: Hops(%d,%d) = %d, oracle = %d", tag, i, j, got, want)
			}
			route, err := n.Route(i, j)
			if want < 0 {
				if err == nil {
					t.Fatalf("%s: Route(%d,%d) succeeded on unreachable pair", tag, i, j)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Route(%d,%d): %v", tag, i, j, err)
			}
			if route[0] != i || route[len(route)-1] != j {
				t.Fatalf("%s: Route(%d,%d) endpoints %v", tag, i, j, route)
			}
			if len(route)-1 != want {
				t.Fatalf("%s: Route(%d,%d) length %d != hops %d (%v)", tag, i, j, len(route)-1, want, route)
			}
			for k, v := range route {
				if n.Node(v).Failed {
					t.Fatalf("%s: Route(%d,%d) passes failed node %d", tag, i, j, v)
				}
				if k > 0 && !o.linked(route[k-1], v) {
					t.Fatalf("%s: Route(%d,%d) uses non-link %d-%d", tag, i, j, route[k-1], v)
				}
			}
		}
	}
}

// randomPositions scatters nodes uniformly over an area×area square.
func randomPositions(seed uint64, nodes int, area float64) []geom.Point {
	s := rng.New(seed)
	positions := make([]geom.Point, nodes)
	for i := range positions {
		positions[i] = geom.Point{X: s.Float64() * area, Y: s.Float64() * area}
	}
	return positions
}

// shardedRandom builds a random deployment tiled into shards of ~8 nodes,
// so the gateway overlay carries most routes even at test sizes.
func shardedRandom(seed uint64, nodes int, area, maxRange float64) *Network {
	return NewSharded(randomPositions(seed, nodes, area), maxRange, ShardOptions{TargetShardSize: 8})
}

// TestShardedMatchesDenseUnderChurn is the incremental-repair property
// test: random Fail/Recover sequences, full pairwise agreement with the
// oracle at every step. Run under -race by ci.sh.
func TestShardedMatchesDenseUnderChurn(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		n := shardedRandom(seed, 60, 12, 2.4)
		checkMatchesOracle(t, n, "initial")
		churn := rng.New(seed).Split("churn")
		var failed []int
		for step := 0; step < 25; step++ {
			if len(failed) > 0 && churn.Float64() < 0.4 {
				k := churn.Intn(len(failed))
				id := failed[k]
				failed = append(failed[:k], failed[k+1:]...)
				n.Recover(id)
			} else {
				id := churn.Intn(n.NumNodes())
				if !n.Node(id).Failed {
					failed = append(failed, id)
				}
				n.Fail(id)
			}
			checkMatchesOracle(t, n, "churn step")
		}
	}
}

// TestShardedGridMatchesDense covers the regular-grid geometry the
// experiments use (diagonal links, corner cases of the tiling).
func TestShardedGridMatchesDense(t *testing.T) {
	n := NewSharded(gridPositions(7, 9, 1), 1.5, ShardOptions{TargetShardSize: 8})
	checkMatchesOracle(t, n, "grid")
	for _, id := range []int{0, 31, 32, 40, 62} {
		n.Fail(id)
	}
	checkMatchesOracle(t, n, "grid after fails")
	n.Recover(32)
	checkMatchesOracle(t, n, "grid after recover")
}

// FuzzShardedChurn drives arbitrary flip sequences from fuzz input bytes:
// each byte flips node b % N (Fail if live, Recover if failed), checking a
// sample of pairs against the oracle after every flip and every pair at the
// end.
func FuzzShardedChurn(f *testing.F) {
	f.Add([]byte{3, 17, 3, 40, 41, 42, 17})
	f.Add([]byte{0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, flips []byte) {
		if len(flips) > 64 {
			flips = flips[:64]
		}
		n := shardedRandom(7, 48, 10, 2.2)
		size := n.NumNodes()
		for _, b := range flips {
			id := int(b) % size
			if n.Node(id).Failed {
				n.Recover(id)
			} else {
				n.Fail(id)
			}
			o := newOracle(n)
			for p := 0; p < size; p += 5 {
				q := (p*13 + int(b)) % size
				if got, want := n.Hops(p, q), o.hops[p][q]; got != want {
					t.Fatalf("Hops(%d,%d) = %d, oracle = %d", p, q, got, want)
				}
			}
		}
		checkMatchesOracle(t, n, "final")
	})
}

// TestGridRoutesMatchOracle pins the route tie-break on the one-shard grids
// the experiments route on: every route is the oracle's lexicographically
// smallest shortest path, on a cold memo and on a second sweep. The 11×11
// grid's 14,641 routes overflow routeMemoLimit, so the memo clears midway.
func TestGridRoutesMatchOracle(t *testing.T) {
	for _, dims := range [][2]int{{5, 10}, {8, 8}, {7, 3}, {11, 11}} {
		n := NewGrid(dims[0], dims[1], 1)
		o := newOracle(n)
		for sweep := 0; sweep < 2; sweep++ {
			for i := 0; i < n.NumNodes(); i++ {
				for j := 0; j < n.NumNodes(); j++ {
					got, err := n.Route(i, j)
					if err != nil {
						t.Fatal(err)
					}
					if want := o.route(i, j); !slices.Equal(got, want) {
						t.Fatalf("%dx%d grid, sweep %d: Route(%d,%d) = %v, oracle %v", dims[0], dims[1], sweep, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestRouteIndependentOfQueryOrder checks that a route depends only on the
// topology: one network answers every pair in ascending order from a cold
// cache, a twin answers them in descending order after Hops queries have
// warmed arbitrary per-source states, and every route agrees — on one
// shard and across the gateway overlay, before and after churn.
func TestRouteIndependentOfQueryOrder(t *testing.T) {
	for _, target := range []int{0, 8} {
		for _, seed := range []uint64{1, 2, 3, 4} {
			positions := randomPositions(seed, 60, 12)
			a := NewSharded(positions, 2.4, ShardOptions{TargetShardSize: target})
			b := NewSharded(positions, 2.4, ShardOptions{TargetShardSize: target})
			size := a.NumNodes()
			for round := 0; round < 2; round++ {
				if round == 1 {
					for _, id := range []int{5, 17, 33} {
						a.Fail(id)
						b.Fail(id)
					}
				}
				warm := rng.New(seed).Split("warm")
				for k := 0; k < 200; k++ {
					b.Hops(warm.Intn(size), warm.Intn(size))
				}
				want := make(map[[2]int][]int)
				for i := 0; i < size; i++ {
					for j := 0; j < size; j++ {
						if r, err := a.Route(i, j); err == nil {
							want[[2]int{i, j}] = r
						}
					}
				}
				for i := size - 1; i >= 0; i-- {
					for j := size - 1; j >= 0; j-- {
						got, err := b.Route(i, j)
						if w, ok := want[[2]int{i, j}]; ok != (err == nil) || !slices.Equal(got, w) {
							t.Fatalf("target %d seed %d round %d: Route(%d,%d) = %v (%v), first order gave %v",
								target, seed, round, i, j, got, err, w)
						}
					}
				}
			}
		}
	}
}

// TestShardedIncrementalRepair verifies the repair contract directly: flips
// never trigger another full structural build, only the flipped node's
// shard epoch moves, and unrelated shards' tables are not rebuilt.
func TestShardedIncrementalRepair(t *testing.T) {
	n := NewSharded(gridPositions(20, 20, 1), 1.5, ShardOptions{TargetShardSize: 25})
	if n.NumShards() < 2 {
		t.Fatalf("NumShards = %d, want several", n.NumShards())
	}
	// Warm every shard's tables and the corner source's overlay state.
	n.HopsRow(0)
	full0, shard0, _ := n.RebuildStats()
	if full0 != 1 {
		t.Fatalf("full builds after warm-up = %d, want 1", full0)
	}
	if shard0 == 0 {
		t.Fatal("warm-up built no shard tables")
	}
	victim := 399 // opposite corner from source 0
	vs := n.ShardOf(victim)
	epochs := make([]uint64, n.NumShards())
	for s := range epochs {
		epochs[s] = n.ShardEpoch(s)
	}
	n.Fail(victim)
	for s := range epochs {
		want := epochs[s]
		if s == vs {
			want++
		}
		if got := n.ShardEpoch(s); got != want {
			t.Fatalf("shard %d epoch = %d, want %d", s, got, want)
		}
	}
	if n.RecoverGen() != 0 {
		t.Fatalf("RecoverGen moved on Fail")
	}
	// Re-query: only the victim's shard may rebuild its tables (the
	// overlay re-runs, but per-shard work is bounded to the touched shard).
	_, sBefore, _ := n.RebuildStats()
	n.HopsRow(0)
	full1, sAfter, _ := n.RebuildStats()
	if full1 != 1 {
		t.Fatalf("flip triggered a full rebuild (full = %d)", full1)
	}
	if rebuilt := sAfter - sBefore; rebuilt != 1 {
		t.Fatalf("flip rebuilt %d shard tables, want 1", rebuilt)
	}
	n.Recover(victim)
	if n.RecoverGen() != 1 {
		t.Fatalf("RecoverGen = %d after Recover, want 1", n.RecoverGen())
	}
}

// TestRebuildStatsCountOnlyWork pins the counters on a one-shard grid: it
// has no gateways, so all-pairs queries and churn build no shard tables and
// run no overlay search.
func TestRebuildStatsCountOnlyWork(t *testing.T) {
	n := NewGrid(8, 8, 1)
	if n.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", n.NumShards())
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < n.NumNodes(); i++ {
			n.HopsRow(i)
			for j := 0; j < n.NumNodes(); j++ {
				n.Route(i, j)
			}
		}
		n.Fail(27)
	}
	n.Recover(27)
	n.Hops(0, 63)
	if full, shard, overlay := n.RebuildStats(); full != 1 || shard != 0 || overlay != 0 {
		t.Fatalf("RebuildStats = (%d, %d, %d), want (1, 0, 0)", full, shard, overlay)
	}
}

// TestShardedRouteMemoSurvivesUnrelatedFail pins the cache-survival
// property the plan cache builds on: a Fail in a shard a memoized route
// never touches must not evict it (a Recover must, anywhere).
func TestShardedRouteMemoSurvivesUnrelatedFail(t *testing.T) {
	n := NewSharded(gridPositions(20, 20, 1), 1.5, ShardOptions{TargetShardSize: 25})
	// Route along the top edge; churn the bottom-right corner.
	if _, err := n.Route(0, 19); err != nil {
		t.Fatal(err)
	}
	hits0, miss0 := n.RouteCacheStats()
	n.Fail(399)
	if _, err := n.Route(0, 19); err != nil {
		t.Fatal(err)
	}
	hits1, miss1 := n.RouteCacheStats()
	if hits1 != hits0+1 || miss1 != miss0 {
		t.Fatalf("unrelated Fail evicted route memo: hits %d→%d misses %d→%d", hits0, hits1, miss0, miss1)
	}
	n.Recover(399)
	if _, err := n.Route(0, 19); err != nil {
		t.Fatal(err)
	}
	hits2, miss2 := n.RouteCacheStats()
	if miss2 != miss1+1 {
		t.Fatalf("Recover did not invalidate route memo: hits %d→%d misses %d→%d", hits1, hits2, miss1, miss2)
	}
}

// TestShardedSendMatchesDenseCharges checks Send end to end across the
// gateway overlay: every transfer takes the oracle's hop count and charges
// each hop's transmitter and receiver once.
func TestShardedSendMatchesDenseCharges(t *testing.T) {
	n := NewSharded(gridPositions(6, 6, 1), 1.5, ShardOptions{TargetShardSize: 9})
	o := newOracle(n)
	wantCost := 0
	for _, pair := range [][2]int{{0, 35}, {5, 30}, {14, 21}} {
		hops, err := n.Send(pair[0], pair[1], 7)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.hops[pair[0]][pair[1]]; hops != want {
			t.Fatalf("Send(%v) hops %d, oracle %d", pair, hops, want)
		}
		wantCost += 2 * 7 * hops
	}
	if totalCost(n) != wantCost {
		t.Fatalf("TotalCost %d, want %d", totalCost(n), wantCost)
	}
}

// TestLinkAtExactRange is the regression test for buildCSR's prefilter and
// cell size. In the first layout the pair's squared offset exceeds the
// squared range by an ulp although geom.Dist equals the range; in the
// second, a pair within range gets rounded cell offsets two cells apart
// when the cell side is exactly the range. Both links must survive, on one
// shard and across shards.
func TestLinkAtExactRange(t *testing.T) {
	for k, tc := range []struct {
		positions []geom.Point
		r         float64
		i, j      int
	}{
		{[]geom.Point{{X: 0, Y: 0}, {X: 0.01, Y: 0.03}}, math.Hypot(0.01, 0.03), 0, 1},
		{[]geom.Point{{X: -548944.8593042248}, {X: -138976.0336726977}, {X: -138971.30060537186}}, 4.733067325862144, 1, 2},
	} {
		for _, n := range []*Network{New(tc.positions, tc.r), NewSharded(tc.positions, tc.r, ShardOptions{TargetShardSize: 1})} {
			if !n.Linked(tc.i, tc.j) || n.Hops(tc.i, tc.j) != 1 {
				t.Fatalf("layout %d: pair within range not linked (Linked %v, Hops %d)", k, n.Linked(tc.i, tc.j), n.Hops(tc.i, tc.j))
			}
		}
	}
}

// TestCSRMatchesLinkScan checks the spatial-hash adjacency against an O(N²)
// linkExists scan on random layouts whose range is set to the distance of
// one of their pairs. The layouts sit on a fine lattice, so many other
// pairs share that offset up to rounding and land within an ulp of the
// range on either side. A radio-plan layout puts pairs at MaxLinkDist, and
// a plan whose path loss does not grow with distance links every pair.
func TestCSRMatchesLinkScan(t *testing.T) {
	check := func(n *Network, tag string) {
		t.Helper()
		o := newOracle(n)
		for i := 0; i < n.NumNodes(); i++ {
			if got, want := n.liveNeighbors(i, nil), o.adj[i]; !slices.Equal(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: node %d neighbours %v, link scan %v", tag, i, got, want)
			}
		}
	}
	for seed := uint64(1); seed <= 20; seed++ {
		s := rng.New(seed)
		h := 0.01 + 0.1*s.Float64()
		positions := make([]geom.Point, 80)
		for i := range positions {
			positions[i] = geom.Point{X: float64(s.Intn(40)) * h, Y: float64(s.Intn(40)) * h}
		}
		a, b := s.Intn(len(positions)), s.Intn(len(positions))
		r := geom.Dist(positions[a], positions[b])
		if r == 0 {
			continue
		}
		check(New(positions, r), "range")
	}
	plan := DefaultRadioPlan()
	d := plan.MaxLinkDist()
	var positions []geom.Point
	for i := 0; i < 40; i++ {
		x := 0.37 * float64(i)
		positions = append(positions, geom.Point{X: x, Y: 0}, geom.Point{X: x + d, Y: 0}, geom.Point{X: x, Y: d})
	}
	check(NewFromRadioPlan(positions, plan), "radio plan")
	plan.Model.Exponent = 0
	check(NewFromRadioPlan(positions, plan), "flat radio plan")
}
