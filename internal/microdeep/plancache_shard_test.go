package microdeep

import (
	"testing"

	"zeiot/internal/geom"
	"zeiot/internal/wsn"
)

// shardedGrid builds wsn.NewGrid's rows×cols unit grid tiled into shards
// of ~target nodes.
func shardedGrid(rows, cols, target int) *wsn.Network {
	var positions []geom.Point
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			positions = append(positions, geom.Point{X: float64(c), Y: float64(r)})
		}
	}
	return wsn.NewSharded(positions, 1.5, wsn.ShardOptions{TargetShardSize: target})
}

// TestPlanCacheSurvivesUnrelatedShardChurn pins the plan cache contract on
// multi-shard networks: a Fail in a shard none of the plan's consulted
// routes touch must be a cache hit; a flip inside a touched shard, or any
// Recover, must recompute.
func TestPlanCacheSurvivesUnrelatedShardChurn(t *testing.T) {
	g, err := BuildGraph(testNet(1))
	if err != nil {
		t.Fatal(err)
	}
	// 12×12 grid, 16 shards of ≤9 nodes. Every site sits on the top-left
	// 2×2 corner, so no consulted route leaves the first shard and the far
	// shards are unrelated. (A balanced assignment spreads sites over every
	// shard and leaves no unrelated one.)
	w := shardedGrid(12, 12, 9)
	a := Assignment{NodeOf: make([]int, len(g.Sites))}
	for i := range a.NodeOf {
		a.NodeOf[i] = []int{0, 1, 12, 13}[i%4]
	}
	plan0, err := Plan(g, a, w)
	if err != nil {
		t.Fatal(err)
	}
	_, miss0 := g.PlanCacheStats()

	// Find a node whose shard hosts no assigned site — churn there must
	// not evict the plan. (Routes could still traverse such a shard, so
	// pick the victim from shards the recomputed-touch signature excludes:
	// assert behaviourally via the hit counter instead of reimplementing
	// the signature.)
	victim := -1
	used := make(map[int]bool)
	for _, tr := range plan0 {
		used[w.ShardOf(tr.From)] = true
		used[w.ShardOf(tr.To)] = true
	}
	for _, n := range a.NodeOf {
		used[w.ShardOf(n)] = true
	}
	for id := w.NumNodes() - 1; id >= 0; id-- {
		if !used[w.ShardOf(id)] {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Skip("every shard hosts plan traffic; cannot pick an unrelated victim")
	}
	w.Fail(victim)
	hitsBefore, _ := g.PlanCacheStats()
	plan1, err := Plan(g, a, w)
	if err != nil {
		t.Fatal(err)
	}
	hitsAfter, missAfter := g.PlanCacheStats()
	if hitsAfter != hitsBefore+1 || missAfter != miss0 {
		t.Fatalf("unrelated Fail evicted plan cache: hits %d→%d misses %d→%d",
			hitsBefore, hitsAfter, miss0, missAfter)
	}
	if len(plan1) != len(plan0) {
		t.Fatalf("cached plan changed length: %d vs %d", len(plan1), len(plan0))
	}

	// A Recover anywhere must invalidate (recoveries can shorten routes in
	// shards they do not belong to).
	w.Recover(victim)
	if _, err := Plan(g, a, w); err != nil {
		t.Fatal(err)
	}
	_, missRecover := g.PlanCacheStats()
	if missRecover != missAfter+1 {
		t.Fatalf("Recover did not invalidate plan cache: misses %d→%d", missAfter, missRecover)
	}

	// A Fail inside a touched shard must invalidate; the recomputed plan
	// must avoid the failed node.
	inPlan := plan0[len(plan0)/2].From
	w.Fail(inPlan)
	_, missBefore := g.PlanCacheStats()
	plan2, err := Plan(g, a, w)
	if err == nil {
		for _, tr := range plan2 {
			if tr.From == inPlan || tr.To == inPlan {
				t.Fatalf("recomputed plan still routes through failed node %d", inPlan)
			}
		}
	}
	_, missFail := g.PlanCacheStats()
	if missFail != missBefore+1 {
		t.Fatalf("touched-shard Fail did not invalidate plan cache: misses %d→%d", missBefore, missFail)
	}
}

// TestPlanShardedMatchesDense checks that planning over a four-shard tiling
// yields the same assignment and total cost as over the same grid in one
// shard (shortest paths may differ node-by-node, but lengths — and
// therefore plan costs — must agree).
func TestPlanShardedMatchesDense(t *testing.T) {
	g, err := BuildGraph(testNet(2))
	if err != nil {
		t.Fatal(err)
	}
	sharded := shardedGrid(6, 6, 9)
	dense := wsn.NewGrid(6, 6, 1)
	as, err := AssignBalanced(g, sharded, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	ad, err := AssignBalanced(g, dense, DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same geometry, same hop metric ⇒ identical assignments.
	for i := range as.NodeOf {
		if as.NodeOf[i] != ad.NodeOf[i] {
			t.Fatalf("assignment diverges at site %d: %d vs %d", i, as.NodeOf[i], ad.NodeOf[i])
		}
	}
	cs, err := ChargeForward(g, as, sharded)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := ChargeForward(g, ad, dense)
	if err != nil {
		t.Fatal(err)
	}
	if cs != cd {
		t.Fatalf("forward charge sharded %d dense %d", cs, cd)
	}
}
