package microdeep

import (
	"slices"
	"sync"
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

// axialGrid rebuilds w's layout with range 1: its axial links only.
func axialGrid(w *wsn.Network) *wsn.Network {
	var pos []geom.Point
	for _, nd := range w.Nodes() {
		pos = append(pos, nd.Pos)
	}
	return wsn.New(pos, 1)
}

// TestPlanMemoKey walks a graph's plan memo through every part of its key.
// Each change must miss: a fresh network, a second topology with the same
// layout, a second graph, another assignment, a Fail and a Recover, the
// flips on a node that hosts no site. A repeat must hit, and every answer
// must equal a cold computePlan on the same inputs.
func TestPlanMemoKey(t *testing.T) {
	g, err := BuildGraph(testNet(31))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := BuildGraph(testNet(31))
	if err != nil {
		t.Fatal(err)
	}
	w := wsn.NewGrid(6, 6, 1) // range 1.5: axial and diagonal links
	narrow := axialGrid(w)
	// Sites sit on the grid's diagonal, so the far corner 35 hosts none
	// and can fail without making any plan unroutable.
	assign := func(nodes ...int) Assignment {
		a := Assignment{NodeOf: make([]int, len(g.Sites))}
		for i := range a.NodeOf {
			a.NodeOf[i] = nodes[i%len(nodes)]
		}
		return a
	}
	a, b := assign(0, 7, 14, 21), assign(0, 7, 14, 28)
	const victim = 35
	steps := []struct {
		name string
		g    *Graph
		a    Assignment
		w    *wsn.Network
		flip func()
		hit  bool
	}{
		{"cold", g, a, w, nil, false},
		{"repeat", g, a, w, nil, true},
		{"fresh network", g, a, wsn.NewGrid(6, 6, 1), nil, false},
		{"second topology, same layout", g, a, narrow, nil, false},
		{"first network again", g, a, w, nil, false},
		{"second graph", g2, a, w, nil, false},
		{"first graph after the second", g, a, w, nil, true},
		{"another assignment", g, b, w, nil, false},
		{"fail", g, b, w, func() { w.Fail(victim) }, false},
		{"repeat after fail", g, b, w, nil, true},
		{"recover", g, b, w, func() { w.Recover(victim) }, false},
		{"repeat after recover", g, b, w, nil, true},
	}
	for _, st := range steps {
		if st.flip != nil {
			st.flip()
		}
		hits0, misses0 := st.g.PlanCacheStats()
		got, err := Plan(st.g, st.a, st.w)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		hits, misses := st.g.PlanCacheStats()
		if gotHit := hits == hits0+1 && misses == misses0; gotHit != st.hit || hits+misses != hits0+misses0+1 {
			t.Fatalf("%s: hits %d→%d, misses %d→%d; want a hit: %v", st.name, hits0, hits, misses0, misses, st.hit)
		}
		want, err := computePlan(st.g, st.a, st.w, &bitset{}, &bitset{})
		if err != nil {
			t.Fatalf("%s: cold plan: %v", st.name, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: memoized plan (%d transfers) differs from a cold one (%d)", st.name, len(got), len(want))
		}
	}
}

// TestPlanMemoConcurrent shares one graph between goroutines that each
// charge their own network, half of them axial-only, so the memo's entry
// is replaced while other goroutines still replay the plan it held. Every
// charge must equal the serial one.
func TestPlanMemoConcurrent(t *testing.T) {
	g, err := BuildGraph(testNet(31))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AssignBalanced(g, wsn.NewGrid(6, 6, 1), DefaultBalanceOptions())
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 4, 25
	nets := make([]*wsn.Network, workers)
	want := make([]int, workers)
	for k := range nets {
		nets[k] = wsn.NewGrid(6, 6, 1)
		if k%2 == 1 {
			nets[k] = axialGrid(nets[k])
		}
		if want[k], err = ChargeForward(g, a, nets[k]); err != nil {
			t.Fatal(err)
		}
	}
	if want[0] == want[1] {
		t.Fatal("the two topologies charge the same; the memo replacement would go unseen")
	}
	var wg sync.WaitGroup
	for k := range nets {
		wg.Add(1)
		go func(w *wsn.Network, want int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if got, err := ChargeForward(g, a, w); err != nil || got != want {
					t.Errorf("round %d: charged %d (%v), serial %d", r, got, err, want)
					return
				}
			}
		}(nets[k], want[k])
	}
	wg.Wait()
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
