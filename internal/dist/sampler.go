package dist

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
)

// Sampler draws iid samples from a fixed distribution. Implementations are
// safe for concurrent use as long as each goroutine supplies its own
// *rand.Rand (its own *rand.PCG, for a BatchSampler's kernel).
type Sampler interface {
	// Sample draws one element.
	Sample(rng *rand.Rand) int
	// N returns the domain size.
	N() int
}

// BatchSampler is the batched extension of Sampler used on every hot
// path: one SampleInto fills a caller-owned buffer without allocating,
// drawing straight from a concrete PCG so each draw's Uint64 inlines into
// the loop instead of going through the rand.Source interface.
//
// Stream compatibility contract: for any PCG state, SampleInto(dst, src)
// must consume exactly the same draws from src — and therefore produce
// exactly the same elements — as len(dst) successive Sample(rand.New(src))
// calls. The kernels reproduce rand.Rand's IntN (a mask for a power-of-two
// n, otherwise Lemire's multiply with the same rejection loop) and its
// 53-bit Float64 exactly. The property and golden tests in
// sampler_batch_test.go enforce this for every implementation in the
// package, and the engine's cross-backend bit-identical verdict tests
// depend on it.
type BatchSampler interface {
	Sampler
	// SampleInto fills dst with iid samples drawn from src.
	SampleInto(dst []int, src *rand.PCG)
}

// Verify interface compliance.
var (
	_ BatchSampler = (*AliasSampler)(nil)
	_ BatchSampler = (*CDFSampler)(nil)
	_ BatchSampler = (*UniformSampler)(nil)
	_ BatchSampler = NopSampler{}
)

// AliasSampler draws samples in O(1) time using Vose's alias method, after
// O(n) preprocessing. It is the default sampler throughout the repository.
type AliasSampler struct {
	prob  []float64
	alias []int
}

// NewAliasSampler preprocesses d with Vose's algorithm.
func NewAliasSampler(d Dist) (*AliasSampler, error) {
	n := d.N()
	if n == 0 {
		return nil, fmt.Errorf("dist: alias sampler over empty domain")
	}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, v := range d.p {
		scaled[i] = v * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	prob := make([]float64, n)
	alias := make([]int, n)
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] = (scaled[l] + scaled[s]) - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		// Only reachable through floating-point drift; the cell is full.
		prob[i] = 1
		alias[i] = i
	}
	return &AliasSampler{prob: prob, alias: alias}, nil
}

// N returns the domain size.
func (a *AliasSampler) N() int { return len(a.prob) }

// Sample draws one element in O(1).
func (a *AliasSampler) Sample(rng *rand.Rand) int {
	i := rng.IntN(len(a.prob))
	return pickAlias(a.prob, a.alias, i, rng.Float64())
}

// SampleInto implements BatchSampler: Sample's two draws per element,
// taken straight from src. On the hard family half the cells are split
// between two elements, so a branch on the coin would mispredict about
// half the time; the pick is a conditional move instead.
//
//dut:hotpath
func (a *AliasSampler) SampleInto(dst []int, src *rand.PCG) {
	prob, alias := a.prob, a.alias
	n := uint64(len(prob))
	if n&(n-1) == 0 {
		mask := n - 1
		for j := range dst {
			i := int(src.Uint64() & mask)
			dst[j] = pickAlias(prob, alias, i, unitFloat(src.Uint64()))
		}
		return
	}
	for j := range dst {
		i := int(lemire(src, n))
		dst[j] = pickAlias(prob, alias, i, unitFloat(src.Uint64()))
	}
}

// pickAlias resolves alias cell i with coin u: i itself when u < prob[i],
// else its alias. Both candidates are loaded before the compare so the
// compiler selects without a branch.
func pickAlias(prob []float64, alias []int, i int, u float64) int {
	k := alias[i]
	if u < prob[i] {
		k = i
	}
	return k
}

// CDFSampler draws samples by binary search over the cumulative distribution
// in O(log n) time. It serves as the correctness oracle for AliasSampler and
// as the ablation comparison point in the benchmarks.
type CDFSampler struct {
	cdf []float64
}

// NewCDFSampler precomputes the cumulative distribution of d.
func NewCDFSampler(d Dist) (*CDFSampler, error) {
	n := d.N()
	if n == 0 {
		return nil, fmt.Errorf("dist: CDF sampler over empty domain")
	}
	cdf := make([]float64, n)
	var acc float64
	for i, v := range d.p {
		acc += v
		cdf[i] = acc
	}
	cdf[n-1] = 1 // absorb rounding drift so search never falls off the end
	return &CDFSampler{cdf: cdf}, nil
}

// N returns the domain size.
func (c *CDFSampler) N() int { return len(c.cdf) }

// Sample draws one element in O(log n).
func (c *CDFSampler) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(c.cdf, u)
}

// SampleInto implements BatchSampler.
//
//dut:hotpath
func (c *CDFSampler) SampleInto(dst []int, src *rand.PCG) {
	for j := range dst {
		dst[j] = sort.SearchFloat64s(c.cdf, unitFloat(src.Uint64()))
	}
}

// UniformSampler is the dedicated fast path for U_n: one IntN per element
// and no table lookups, roughly halving the RNG draws of an alias-method
// sampler over the uniform distribution. Note the stream it consumes from
// an RNG differs from AliasSampler's over U_n (one draw per element
// instead of two), so swapping sampler kinds under a fixed seed changes
// downstream verdicts; within the kind, SampleInto ≡ repeated Sample as
// for every BatchSampler.
type UniformSampler struct {
	n int
}

// NewUniformSampler returns the fast uniform sampler over {0..n-1}.
func NewUniformSampler(n int) (*UniformSampler, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dist: uniform sampler over %d elements", n)
	}
	return &UniformSampler{n: n}, nil
}

// N returns the domain size.
func (u *UniformSampler) N() int { return u.n }

// Sample draws one element in O(1).
func (u *UniformSampler) Sample(rng *rand.Rand) int { return rng.IntN(u.n) }

// SampleInto implements BatchSampler.
//
//dut:hotpath
func (u *UniformSampler) SampleInto(dst []int, src *rand.PCG) {
	n := uint64(u.n)
	if n&(n-1) == 0 {
		mask := n - 1
		for j := range dst {
			dst[j] = int(src.Uint64() & mask)
		}
		return
	}
	for j := range dst {
		dst[j] = int(lemire(src, n))
	}
}

// NopSampler is the shared no-op sampler for backends whose players draw
// their samples elsewhere (e.g. a networked session, where each node owns
// its real sampler): it satisfies the engine's non-nil sampler contract,
// consumes no randomness, and always yields element 0 of a size-1 domain.
type NopSampler struct{}

// Sample implements Sampler.
func (NopSampler) Sample(*rand.Rand) int { return 0 }

// SampleInto implements BatchSampler.
//
//dut:hotpath
func (NopSampler) SampleInto(dst []int, _ *rand.PCG) {
	for j := range dst {
		dst[j] = 0
	}
}

// N implements Sampler.
func (NopSampler) N() int { return 1 }

// SampleN draws q iid samples from s into a fresh slice.
func SampleN(s Sampler, q int, rng *rand.Rand) []int {
	out := make([]int, q)
	SampleInto(s, out, rng)
	return out
}

// SampleInto fills buf with iid samples by len(buf) successive Sample
// calls on rng, without allocating. It is the per-element reference path:
// a BatchSampler's kernel consumes the same draws when handed the PCG
// behind rng, so the two are interchangeable under a fixed seed.
func SampleInto(s Sampler, buf []int, rng *rand.Rand) {
	for i := range buf {
		buf[i] = s.Sample(rng)
	}
}

// unitFloat maps one draw to [0, 1) exactly as rand.Rand.Float64 does:
// its low 53 bits over 2^53.
func unitFloat(x uint64) float64 {
	return float64(x<<11>>11) / (1 << 53)
}

// lemire reduces draws from src to [0, n) for an n that is not a power of
// two, exactly as rand.Rand.IntN does: the high word of draw·n, redrawing
// while the low word falls below 2^64 mod n.
func lemire(src *rand.PCG, n uint64) uint64 {
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// Histogram counts occurrences of each element among the samples over a
// domain of size n.
func Histogram(samples []int, n int) ([]int64, error) {
	h := make([]int64, n)
	for _, s := range samples {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("dist: sample %d outside domain of size %d", s, n)
		}
		h[s]++
	}
	return h, nil
}

// Empirical returns the empirical distribution of the samples over a domain
// of size n. It errors on an empty sample set.
func Empirical(samples []int, n int) (Dist, error) {
	if len(samples) == 0 {
		return Dist{}, fmt.Errorf("dist: empirical distribution of zero samples")
	}
	h, err := Histogram(samples, n)
	if err != nil {
		return Dist{}, err
	}
	p := make([]float64, n)
	inv := 1 / float64(len(samples))
	for i, c := range h {
		p[i] = float64(c) * inv
	}
	return Dist{p: p}, nil
}
