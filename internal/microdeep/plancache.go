package microdeep

import (
	"sync"

	"zeiot/internal/wsn"
)

// The plan cache memoizes Plan results. A transfer plan depends on exactly
// three inputs — the dependency graph, the site-to-node assignment, and the
// network topology — and the hot cost paths (CostPerSample, the experiment
// sweeps, E8's resilience probes) recompute it with identical inputs over
// and over.
//
// The cache lives on the Graph whose plans it stores, so its lifetime is
// owned: entries die with the graph instead of pinning every graph and
// network ever planned in a package-global map, and a freed graph's reused
// address can never resurface a stale entry (the old global cache keyed on
// the raw *Graph pointer and could). Networks are identified by their
// process-unique wsn.Network.ID — a monotonic counter, never reused. Each
// entry carries the touched-shard signature of the routes it consulted, so
// a Fail/Recover that could change the plan invalidates it without any
// explicit hook.
//
// Assignments are value slices, so the key carries an FNV-1a hash of
// NodeOf and each entry keeps its own copy of the slice: a hash hit is
// confirmed element-wise before the cached plan is reused, making a hash
// collision a forced miss instead of a wrong plan.

// planCacheLimit bounds each graph's cache; when full it is cleared
// wholesale (the working set of distinct (network, assignment) pairs in one
// experiment is far below the limit, so eviction order never matters).
const planCacheLimit = 64

type planKey struct {
	net  uint64 // wsn.Network.ID — process-unique, never reused
	n    int
	hash uint64
}

type planEntry struct {
	nodeOf []int
	plan   []Transfer
	// Validity signature (see planFor): the epochs of every shard any
	// consulted route touched, plus the recover generation.
	touched    shardTouch
	recoverGen uint64
}

// shardTouch records which shards a plan computation's routes traversed,
// with the epoch each shard had at computation time. A cached plan stays
// valid exactly while those epochs (and RecoverGen) hold:
// a Fail in an untouched shard cannot change any consulted route (it only
// removes edges elsewhere), so the plan survives unrelated churn.
type shardTouch struct {
	shards []int
	epochs []uint64
}

func (t *shardTouch) reset() {
	t.shards = t.shards[:0]
	t.epochs = t.epochs[:0]
}

// addRoute folds one consulted route's shards into the set.
func (t *shardTouch) addRoute(w *wsn.Network, route []int) {
	for _, v := range route {
		s := w.ShardOf(v)
		known := false
		for _, ps := range t.shards {
			if ps == s {
				known = true
				break
			}
		}
		if !known {
			t.shards = append(t.shards, s)
			t.epochs = append(t.epochs, w.ShardEpoch(s))
		}
	}
}

func (t *shardTouch) valid(w *wsn.Network) bool {
	for k, s := range t.shards {
		if w.ShardEpoch(s) != t.epochs[k] {
			return false
		}
	}
	return true
}

func (t *shardTouch) clone() shardTouch {
	return shardTouch{
		shards: append([]int(nil), t.shards...),
		epochs: append([]uint64(nil), t.epochs...),
	}
}

// planCache is the per-Graph plan memo. The mutex guards the map and the
// scratch bitsets computePlan dedups in (experiments plan the same graph
// from concurrent goroutines).
type planCache struct {
	mu sync.Mutex
	m  map[planKey]*planEntry
	// hits/misses count planFor outcomes over the cache's lifetime (a
	// hash collision forces a recompute and counts as a miss). Read via
	// Graph.PlanCacheStats by the observability layer.
	hits, misses uint64
	// rawSeen/edgeSeen are the reusable dedup bitsets computePlan
	// scratches in; touchScratch collects shard signatures.
	rawSeen, edgeSeen bitset
	touchScratch      shardTouch
}

// hashNodeOf is FNV-1a over the assignment vector, mixing each node id as
// a 64-bit word.
func hashNodeOf(nodeOf []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range nodeOf {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	return h
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// planFor returns the (possibly cached) transfer plan for g under a on w.
// The returned slice is shared with the cache and must be treated as
// read-only; the exported Plan copies it before handing it out.
//
// Entries are validated against the fine-grained signature computePlan
// collected — the epochs of every shard a consulted route touched, plus
// RecoverGen — so the cache survives churn in shards the plan never sees.
func planFor(g *Graph, a Assignment, w *wsn.Network) ([]Transfer, error) {
	key := planKey{net: w.ID(), n: len(a.NodeOf), hash: hashNodeOf(a.NodeOf)}
	c := &g.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && equalInts(e.nodeOf, a.NodeOf) &&
		e.recoverGen == w.RecoverGen() && e.touched.valid(w) {
		c.hits++
		return e.plan, nil
	}
	c.misses++
	c.touchScratch.reset()
	plan, err := computePlan(g, a, w, &c.rawSeen, &c.edgeSeen, &c.touchScratch)
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = make(map[planKey]*planEntry)
	} else if len(c.m) >= planCacheLimit {
		clear(c.m)
	}
	c.m[key] = &planEntry{
		nodeOf:     append([]int(nil), a.NodeOf...),
		plan:       plan,
		touched:    c.touchScratch.clone(),
		recoverGen: w.RecoverGen(),
	}
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
