// Package rng provides deterministic, splittable pseudo-random number
// streams for the zeiot simulators.
//
// Every experiment in the repository takes a single root seed. Substreams
// derived from that seed with Split are statistically independent, so adding
// a new consumer of randomness to one subsystem never perturbs the draws
// seen by another — a property the reproducibility story in EXPERIMENTS.md
// relies on.
//
// The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014), chosen
// because it is tiny, passes BigCrush, and supports O(1) splitting.
package rng

import (
	"math"
)

// Stream is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded with 0; prefer New to make the seed explicit.
//
// Stream is not safe for concurrent use; Split off one stream per goroutine.
type Stream struct {
	state uint64
	// spare holds a cached second Gaussian variate from the Box-Muller
	// transform; spareOK reports whether it is valid.
	spare   float64
	spareOK bool
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// State is an exact, serializable snapshot of a Stream's position: the
// SplitMix64 counter plus the Box-Muller spare cache. All fields are exported
// so a State round-trips through encoding/gob unchanged — it is the unit the
// checkpointed-training formats persist so a resumed run draws exactly the
// variates an uninterrupted run would have drawn.
type State struct {
	PRNG    uint64
	Spare   float64
	SpareOK bool
}

// State snapshots the stream's position. Restoring it with SetState (or
// FromState) reproduces the stream's future output exactly.
func (s *Stream) State() State {
	return State{PRNG: s.state, Spare: s.spare, SpareOK: s.spareOK}
}

// SetState rewinds (or fast-forwards) the stream to a snapshot taken with
// State.
func (s *Stream) SetState(st State) {
	s.state = st.PRNG
	s.spare = st.Spare
	s.spareOK = st.SpareOK
}

// FromState returns a new stream positioned at st.
func FromState(st State) *Stream {
	s := &Stream{}
	s.SetState(st)
	return s
}

// golden is the SplitMix64 increment (odd, close to 2^64/phi).
const golden = 0x9e3779b97f4a7c15

// Mix64 applies the SplitMix64 output finalizer to x: a bijective
// avalanche mix in which every input bit affects every output bit. Seed
// derivations that combine a base seed with structured values (a drop rate,
// a link identity) should run the combination through Mix64 so nearby or
// degenerate inputs — in particular an xor with zero, which would otherwise
// be the identity — land far apart in state space.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent substream labelled by key, advancing the
// parent. Splits with different keys are independent of each other and of
// the parent's subsequent output; splitting the SAME key twice from the
// same parent yields two different, independent streams (the parent state
// advances), so `stream.Split("worker")` inside a loop is safe.
func (s *Stream) Split(key string) *Stream {
	h := s.Uint64()
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 0x100000001b3
	}
	// Run the mixed value through one SplitMix64 round so adjacent keys
	// land far apart in state space.
	child := New(h)
	child.Uint64()
	return child
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Norm returns a standard Gaussian variate via the Box-Muller transform.
func (s *Stream) Norm() float64 {
	if s.spareOK {
		s.spareOK = false
		return s.spare
	}
	var u, v float64
	for {
		u = s.Float64()
		if u > 0 {
			break
		}
	}
	v = s.Float64()
	r := math.Sqrt(-2 * math.Log(u))
	s.spare = r * math.Sin(2*math.Pi*v)
	s.spareOK = true
	return r * math.Cos(2*math.Pi*v)
}

// NormMeanStd returns a Gaussian variate with the given mean and standard
// deviation.
func (s *Stream) NormMeanStd(mean, std float64) float64 {
	return mean + std*s.Norm()
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u) / rate
		}
	}
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Float64() < p
}
