package microdeep

import (
	"slices"
	"sync"

	"zeiot/internal/wsn"
)

// planCache memoizes a Graph's last transfer plan. A plan depends on exactly
// three inputs — the dependency graph, the site-to-node assignment and the
// network topology — and the hot cost paths (CostPerSample, the experiment
// sweeps, E8's resilience probes) replay it with unchanged inputs over and
// over. Every program plans one (assignment, network) pair per graph, so
// one entry serves them all; another pair replaces it.
//
// The memo lives on the Graph, so it dies with the graph. It holds the
// network pointer, so the garbage collector cannot recycle that address for
// another network while the entry lives, and the network's topology epoch
// covers every Fail and Recover since the plan was computed. The assignment
// is a value slice, so the memo keeps its own copy and compares it element
// by element.
//
// The mutex guards the memo and the scratch bitsets computePlan dedups in
// (experiments plan the same graph from concurrent goroutines).
type planCache struct {
	mu     sync.Mutex
	net    *wsn.Network
	epoch  uint64
	nodeOf []int
	plan   []Transfer
	// hits/misses count planFor outcomes over the cache's lifetime. Read via
	// Graph.PlanCacheStats by the observability layer.
	hits, misses uint64
	// rawSeen/edgeSeen are the reusable dedup bitsets computePlan
	// scratches in.
	rawSeen, edgeSeen bitset
}

// planFor returns the (possibly memoized) transfer plan for g under a on w.
// The returned slice is shared with the memo and must be treated as
// read-only; the exported Plan copies it before handing it out. A new plan
// is a new slice, so a caller still reading a replaced one is unaffected.
func planFor(g *Graph, a Assignment, w *wsn.Network) ([]Transfer, error) {
	c := &g.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.net == w && c.epoch == w.Epoch() && slices.Equal(c.nodeOf, a.NodeOf) {
		c.hits++
		return c.plan, nil
	}
	c.misses++
	plan, err := computePlan(g, a, w, &c.rawSeen, &c.edgeSeen)
	if err != nil {
		return nil, err
	}
	c.net, c.epoch, c.plan = w, w.Epoch(), plan
	c.nodeOf = append(c.nodeOf[:0], a.NodeOf...)
	return plan, nil
}

// bitset is a reusable flat bit vector with O(touched) clearing: testSet
// records which words it dirtied so reset only rewrites those.
type bitset struct {
	words   []uint64
	touched []int
}

// ensure sizes the bitset for n bits and clears it. Touched indices may
// come from a previous, larger sizing, so the clear happens at full
// capacity before truncating.
func (b *bitset) ensure(n int) {
	nw := (n + 63) >> 6
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
		b.touched = b.touched[:0]
		return
	}
	b.words = b.words[:cap(b.words)]
	b.reset()
	b.words = b.words[:nw]
}

// testSet reports whether bit i was already set, setting it either way.
func (b *bitset) testSet(i int) bool {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m != 0 {
		return true
	}
	if b.words[w] == 0 {
		b.touched = append(b.touched, w)
	}
	b.words[w] |= m
	return false
}

// reset clears every touched word.
func (b *bitset) reset() {
	for _, w := range b.touched {
		b.words[w] = 0
	}
	b.touched = b.touched[:0]
}
