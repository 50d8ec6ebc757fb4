package dist

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// Sampler draws iid samples from a fixed distribution. Implementations
// are safe for concurrent use as long as each goroutine supplies its own
// *rand.Rand or *PCG.
//
// Every sampler is a batch kernel: SampleInto fills a caller-owned buffer
// without allocating, drawing straight from the package's PCG, and every
// hot path draws through it. A kernel loads the generator's state into
// locals once per call, steps it there, and stores it once at the end.
//
// Stream compatibility contract: for any PCG state, SampleInto(dst, src)
// must consume exactly the same draws from src — and therefore produce
// exactly the same elements — as len(dst) successive Sample(rand.New(src))
// calls. The kernels reproduce rand.Rand's IntN (a mask for a power-of-two
// n, otherwise Lemire's multiply with the same rejection loop) and its
// 53-bit Float64 exactly. The property, fuzz and golden tests in
// sampler_batch_test.go enforce this for every implementation in the
// package, and the engine's cross-backend bit-identical verdict tests
// depend on it.
type Sampler interface {
	// Sample draws one element.
	Sample(rng *rand.Rand) int
	// SampleInto fills dst with iid samples drawn from src.
	SampleInto(dst []int, src *PCG)
}

var _ Sampler = (*AliasSampler)(nil)

// AliasSampler draws samples in O(1) time using Vose's alias method, after
// O(n) preprocessing. It is the default sampler throughout the repository.
type AliasSampler struct {
	cells []aliasCell
	// full is set when every cell keeps its own element, which Vose's
	// construction yields exactly for the uniform distribution: no coin
	// can change a pick.
	full bool
}

// aliasCell is one column of the alias table. A coin word keeps the
// cell's own element when its low 53 bits fall below keep, and takes
// alias otherwise.
type aliasCell struct {
	keep  uint64
	alias int
}

// coinMask selects the 53 bits of a word that rand.Rand.Float64 keeps.
const coinMask = 1<<53 - 1

// coinKeep turns the coin test Float64() < prob into the exact integer
// test m < keep on the same word, where m is the word's low 53 bits and
// Float64() = m/2^53: keep = ⌈prob·2^53⌉, or 0 when prob ≤ 0. Scaling by
// 2^53 is exact for any prob ≤ 1, subnormals included, and an integer m
// is below a real x exactly when it is below ⌈x⌉.
func coinKeep(prob float64) uint64 {
	if !(prob > 0) {
		return 0
	}
	return uint64(math.Ceil(prob * (1 << 53)))
}

// NewAliasSampler preprocesses d with Vose's algorithm.
func NewAliasSampler(d Dist) (*AliasSampler, error) {
	if d.N() == 0 {
		return nil, fmt.Errorf("dist: alias sampler over empty domain")
	}
	cells, _ := vose(d.p)
	full := true
	for i, c := range cells {
		full = full && c.alias == i
	}
	return &AliasSampler{cells: cells, full: full}, nil
}

// vose builds the alias table of p with Vose's algorithm. It also
// returns each cell's keep probability, the float that the cell's
// integer coin threshold was converted from.
func vose(p []float64) ([]aliasCell, []float64) {
	n := len(p)
	// prob holds p scaled by n; a cell's entry is final once the cell
	// leaves small.
	prob := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, v := range p {
		prob[i] = v * float64(n)
		if prob[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	cells := make([]aliasCell, n)
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		cells[s].alias = l
		prob[l] = (prob[l] + prob[s]) - 1
		if prob[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		cells[i].alias = i
	}
	for _, i := range small {
		// Only reachable through floating-point drift; the cell is full.
		prob[i] = 1
		cells[i].alias = i
	}
	for i := range cells {
		cells[i].keep = coinKeep(prob[i])
	}
	return cells, prob
}

// Sample draws one element in O(1).
func (a *AliasSampler) Sample(rng *rand.Rand) int {
	i := rng.IntN(len(a.cells))
	return a.cells[i].pick(i, rng.Uint64())
}

// SampleInto implements Sampler: Sample's two words per element.
// A draw's index word comes from its first state and its coin word from
// its second; both states are computed from the draw's starting state,
// the second with the two-step constants, so the loop carries one
// 128-bit multiply-add per draw instead of two in series. On the hard
// family half the cells are split between two elements, so a branch on
// the coin would mispredict about half the time; the pick is a
// conditional move instead. Over a full table the coin cannot change the
// pick, so the power-of-two loop reads only the index words: draw j's
// is state 2j+1, so the even draws' index states lie four steps apart
// and so do the odd draws'. Two chains, from states 1 and 3, each move
// by one four-step multiply-add per pair of draws, and the batch ends
// one step past the last index state. A batch of one draw starts no
// second chain.
//
//dut:hotpath
func (a *AliasSampler) SampleInto(dst []int, src *PCG) {
	cells := a.cells
	n := uint64(len(cells))
	hi, lo := src.hi, src.lo
	switch {
	case n&(n-1) != 0:
		for j := range dst {
			h1, l1 := pcgStep(hi, lo)
			hi, lo = pcgStep2(hi, lo)
			i, frac := bits.Mul64(pcgOut(h1, l1), n)
			if frac < n {
				// IntN's rejection loop: the word at (hi, lo) redraws
				// the index, and the coin moves one state on.
				thresh := -n % n
				for frac < thresh {
					i, frac = bits.Mul64(pcgOut(hi, lo), n)
					hi, lo = pcgStep(hi, lo)
				}
			}
			dst[j] = cells[i].pick(int(i), pcgOut(hi, lo))
		}
	case a.full && len(dst) > 1:
		mask := n - 1
		eh, el := pcgStep(hi, lo)
		oh, ol := pcgStep2(eh, el)
		d := dst
		for len(d) > 2 {
			d[0] = int(pcgOut(eh, el) & mask)
			d[1] = int(pcgOut(oh, ol) & mask)
			eh, el = pcgStep4(eh, el)
			oh, ol = pcgStep4(oh, ol)
			d = d[2:]
		}
		d[0] = int(pcgOut(eh, el) & mask)
		if len(d) == 2 {
			d[1] = int(pcgOut(oh, ol) & mask)
			eh, el = oh, ol
		}
		hi, lo = pcgStep(eh, el)
	case a.full:
		mask := n - 1
		for j := range dst {
			h1, l1 := pcgStep(hi, lo)
			hi, lo = pcgStep2(hi, lo)
			dst[j] = int(pcgOut(h1, l1) & mask)
		}
	default:
		mask := n - 1
		for j := range dst {
			h1, l1 := pcgStep(hi, lo)
			hi, lo = pcgStep2(hi, lo)
			i := int(pcgOut(h1, l1) & mask)
			dst[j] = cells[i].pick(i, pcgOut(hi, lo))
		}
	}
	src.hi, src.lo = hi, lo
}

// pick resolves cell c, at index i, with coin word w: i itself when w's
// low 53 bits fall below keep, else the alias. Both candidates are at
// hand before the compare so the compiler selects without a branch.
func (c aliasCell) pick(i int, w uint64) int {
	k := c.alias
	if w&coinMask < c.keep {
		k = i
	}
	return k
}

// SampleN draws q iid samples from s into a fresh slice.
func SampleN(s Sampler, q int, rng *rand.Rand) []int {
	out := make([]int, q)
	SampleInto(s, out, rng)
	return out
}

// SampleInto fills buf with iid samples by len(buf) successive Sample
// calls on rng, without allocating. It is the per-element reference path:
// the sampler's kernel consumes the same draws when handed the PCG behind
// rng, so the two are interchangeable under a fixed seed.
func SampleInto(s Sampler, buf []int, rng *rand.Rand) {
	for i := range buf {
		buf[i] = s.Sample(rng)
	}
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
