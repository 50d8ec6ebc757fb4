package dist

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// batchSamplers builds one instance of every BatchSampler in the package
// over a common skewed distribution (uniform for the samplers that fix
// their own distribution).
func batchSamplers(t *testing.T, n int) map[string]BatchSampler {
	t.Helper()
	d := skewed(t, n)
	alias, err := NewAliasSampler(d)
	if err != nil {
		t.Fatal(err)
	}
	cdf, err := NewCDFSampler(d)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := NewUniformSampler(n)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]BatchSampler{
		"alias":   alias,
		"cdf":     cdf,
		"uniform": uni,
		"nop":     NopSampler{},
	}
}

// skewed is the common skewed distribution of the contract tests:
// weights 1..7 repeating over n elements.
func skewed(t testing.TB, n int) Dist {
	t.Helper()
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i%7 + 1)
	}
	d, err := FromWeights(w)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// contractDomains are the domain sizes the stream-contract tests run
// each sampler kind over: a power of two, where IntN masks one draw, and
// a non-power of two, where it takes Lemire's multiply.
var contractDomains = []int{64, 100}

// TestSampleIntoMatchesSample is the stream-compatibility property test:
// for every BatchSampler, domain, seed, and batch-size split, the kernel
// must consume the same PCG draws — and yield the same elements — as
// repeated Sample on a rand.Rand over math/rand/v2's PCG, so every case
// also checks PCG against the stdlib generator.
func TestSampleIntoMatchesSample(t *testing.T) {
	for _, name := range []string{"alias", "cdf", "uniform", "nop"} {
		t.Run(name, func(t *testing.T) {
			for _, n := range contractDomains {
				checkStreamContract(t, batchSamplers(t, n)[name], 257)
			}
		})
	}
	// The alias kernel's other two loops: U_64, where every cell is full
	// and only the index words are read, and the n=64 hard far table,
	// where half the cells are split.
	t.Run("alias-uniform-64", func(t *testing.T) {
		s := mustAliasSampler(t, mustUniform(t, 64))
		if !s.full {
			t.Fatal("U_64's alias table is not full; the full-table loop is untested")
		}
		checkStreamContract(t, s, 257)
	})
	// smp-sampling's null, U_4096, through the full-table loop's two
	// index chains: single draws, which start no second chain, batches
	// of 2, where the pair loop never runs, odd batches of 3, and q=642.
	t.Run("alias-uniform-4096", func(t *testing.T) {
		s := mustAliasSampler(t, mustUniform(t, 4096))
		if !s.full {
			t.Fatal("U_4096's alias table is not full; the full-table loop is untested")
		}
		for seed := uint64(0); seed < 8; seed++ {
			checkStreamFrom(t, s, PCG{hi: seed, lo: seed ^ 0xabcdef}, 1285, 1, 2, 3, 642)
		}
	})
	t.Run("alias-hard-far-64", func(t *testing.T) {
		s := mustAliasSampler(t, hardFar(t, 5))
		if s.full {
			t.Fatal("the hard far table is full; the split-cell loop is untested")
		}
		checkStreamContract(t, s, 257)
	})
	// No seed above reaches IntN(100)'s rejection loop, which takes
	// about one word in 10^18; from a state whose next word it rejects,
	// the kernels' redraw paths must still match Sample.
	t.Run("rejection-100", func(t *testing.T) {
		for _, start := range rejectingStates(t) {
			for _, name := range []string{"alias", "uniform"} {
				checkStreamFrom(t, batchSamplers(t, 100)[name], start, 16, 1, 16)
			}
		}
	})
	// At n = 2^62+1 the Lemire threshold 2^64 mod n is n−4, so about a
	// quarter of IntN's draws are rejected and redrawn.
	t.Run("uniform-huge", func(t *testing.T) {
		if bits.UintSize < 64 {
			t.Skip("needs a 64-bit int")
		}
		s, err := NewUniformSampler(1<<(bits.UintSize-2) + 1)
		if err != nil {
			t.Fatal(err)
		}
		const total = 257
		checkStreamContract(t, s, total)
		src := newPCG(3, 3^0xabcdef)
		s.SampleInto(make([]int, total), src)
		if words := wordsConsumed(newPCG(3, 3^0xabcdef), src); words <= total {
			t.Fatalf("%d draws consumed %d words; the rejection loop never ran", total, words)
		}
	})
}

// FuzzAliasKernel checks the alias kernel against Sample over
// math/rand/v2's PCG, elements and generator state after the batch both.
// The weights are bytes repeated over a domain of 1 to 4096 elements, so
// zero cells, one-hot and uniform tables, power-of-two and other domains
// are all in reach, under any seed and batch split.
func FuzzAliasKernel(f *testing.F) {
	f.Add([]byte{1}, uint16(63), uint64(1), uint64(2), uint16(300), uint8(15))          // U_64: full table
	f.Add([]byte{1}, uint16(63), uint64(11), uint64(12), uint16(301), uint8(4))         // U_64, odd chunks
	f.Add([]byte{1}, uint16(4095), uint64(9), uint64(10), uint16(642), uint8(255))      // U_4096, even chunks
	f.Add([]byte{1}, uint16(99), uint64(1), uint64(2), uint16(300), uint8(15))          // U_100
	f.Add([]byte{0, 0, 9, 0, 0}, uint16(4), uint64(3), uint64(4), uint16(64), uint8(0)) // one-hot
	f.Add([]byte{3, 1}, uint16(4095), uint64(5), uint64(6), uint16(642), uint8(255))    // split cells
	f.Add([]byte{0, 2, 0, 7, 1, 0}, uint16(5), uint64(7), uint64(8), uint16(100), uint8(2))
	f.Fuzz(func(t *testing.T, weights []byte, domain uint16, seed1, seed2 uint64, total uint16, chunk uint8) {
		if len(weights) == 0 {
			return
		}
		w := make([]float64, 1+int(domain)%4096)
		for i := range w {
			w[i] = float64(weights[i%len(weights)])
		}
		d, err := FromWeights(w)
		if err != nil {
			return // every weight is zero
		}
		checkStreamFrom(t, mustAliasSampler(t, d), PCG{hi: seed1, lo: seed2}, int(total)%1024, 1+int(chunk))
	})
}

// checkStreamContract checks s's kernel against repeated Sample over
// eight seeds and several batch splits of total draws: single-element
// and large batches and a ragged tail.
func checkStreamContract(t *testing.T, s BatchSampler, total int) {
	t.Helper()
	for seed := uint64(0); seed < 8; seed++ {
		checkStreamFrom(t, s, PCG{hi: seed, lo: seed ^ 0xabcdef}, total, 1, 3, 16, total)
	}
}

// checkStreamFrom checks s's kernel against repeated Sample over
// math/rand/v2's PCG from state start: total draws, filled through
// batches of each of the given sizes, must yield the same elements and
// leave the generator in the same state.
func checkStreamFrom(t testing.TB, s BatchSampler, start PCG, total int, chunks ...int) {
	t.Helper()
	want := make([]int, total)
	ref := rand.NewPCG(start.hi, start.lo)
	seqRNG := rand.New(ref)
	for i := range want {
		want[i] = s.Sample(seqRNG)
	}
	after := stdState(ref)
	for _, chunk := range chunks {
		src := start
		got := make([]int, total)
		for lo := 0; lo < total; lo += chunk {
			s.SampleInto(got[lo:min(lo+chunk, total)], &src)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d start %+v chunk %d: element %d is %d via SampleInto, %d via Sample",
					s.N(), start, chunk, i, got[i], want[i])
			}
		}
		if src != after {
			t.Fatalf("n=%d start %+v chunk %d: PCG states diverge after batch (%+v vs %+v)", s.N(), start, chunk, src, after)
		}
	}
}

// rejectingStates returns eight PCG states whose next word IntN(100)
// rejects: the word x = 25⁻¹ mod 2^62, for which x·100 ≡ 4 (mod 2^64),
// below the threshold 2^64 mod 100 = 16. DXSM ends by multiplying the
// mixed high half by lo|1, so lo is solved for under each of eight high
// halves whose mix is odd, and the LCG step is inverted to land one step
// before that state.
func rejectingStates(t *testing.T) []PCG {
	t.Helper()
	oddInverse := func(u uint64) uint64 {
		inv := u // correct to 3 bits; each Newton step doubles that
		for i := 0; i < 5; i++ {
			inv *= 2 - u*inv
		}
		return inv
	}
	u128 := func(hi, lo uint64) *big.Int {
		v := new(big.Int).SetUint64(hi)
		return v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(lo))
	}
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	invMul := new(big.Int).ModInverse(u128(pcgMulHi, pcgMulLo), mod)
	x := oddInverse(25) & (1<<62 - 1)
	var states []PCG
	for hi := uint64(1); len(states) < 8; hi++ {
		if pcgOut(hi, 0)&1 == 0 {
			continue
		}
		prev := u128(hi, x*oddInverse(pcgOut(hi, 0)))
		prev.Sub(prev, u128(pcgIncHi, pcgIncLo))
		prev.Mul(prev, invMul)
		prev.Mod(prev, mod)
		start := PCG{hi: new(big.Int).Rsh(prev, 64).Uint64(), lo: prev.Uint64()}
		ref := rand.NewPCG(start.hi, start.lo)
		rand.New(ref).IntN(100)
		from, to := start, stdState(ref)
		if words := wordsConsumed(&from, &to); words != 2 {
			t.Fatalf("IntN(100) took %d words from the crafted state %+v, want 2", words, start)
		}
		states = append(states, start)
	}
	return states
}

// newPCG returns a PCG seeded as rand.NewPCG(seed1, seed2).
func newPCG(seed1, seed2 uint64) *PCG {
	p := new(PCG)
	p.Seed(seed1, seed2)
	return p
}

// stdState reads a math/rand/v2 PCG's state through its binary encoding.
func stdState(p *rand.PCG) PCG {
	b, err := p.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return PCG{hi: binary.BigEndian.Uint64(b[4:]), lo: binary.BigEndian.Uint64(b[12:])}
}

func mustAliasSampler(t testing.TB, d Dist) *AliasSampler {
	t.Helper()
	s, err := NewAliasSampler(d)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// wordsConsumed counts the Uint64 words that take a PCG from start to
// the state of end.
func wordsConsumed(start, end *PCG) int {
	words := 0
	for ; *start != *end; words++ {
		start.Uint64()
	}
	return words
}

// TestPackageSampleIntoDispatchesBatch checks the package-level helper,
// which is the per-element reference path, stays interchangeable with
// the batch kernel it once dispatched to: over the PCG behind its
// rand.Rand, the kernel yields the same elements.
func TestPackageSampleIntoDispatchesBatch(t *testing.T) {
	const q = 100
	for _, name := range []string{"alias", "cdf", "uniform", "nop"} {
		t.Run(name, func(t *testing.T) {
			for _, n := range contractDomains {
				s := batchSamplers(t, n)[name]
				ref := make([]int, q)
				SampleInto(s, ref, rand.New(rand.NewPCG(5, 11)))
				got := make([]int, q)
				s.SampleInto(got, newPCG(5, 11))
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("n=%d element %d: kernel %d, reference %d", n, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// hardFar is the Section 3 hard instance at n=2^(ell+1) and eps=0.5
// under the perturbation drawn from seed 1. At ell=11 (n=4096) it is the
// far input of the seed-1 benchmark runs.
func hardFar(t testing.TB, ell int) Dist {
	t.Helper()
	h, err := NewHardInstance(ell, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	z, err := RandomPerturbation(h.Ell, rand.New(rand.NewPCG(1, 0xd1b54a32d192ed03)))
	if err != nil {
		t.Fatal(err)
	}
	nu, err := h.Perturbed(z)
	if err != nil {
		t.Fatal(err)
	}
	return nu
}

// streamDigest is FNV-1a over the little-endian draws followed by the
// generator's next raw word, so it pins both the elements and how many
// words produced them.
func streamDigest(draws []int, next uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range draws {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], next)
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// TestSamplerStreamsGolden pins the first 4096 draws of each sampler kind
// from PCG(1, 2) to digests recorded before the PCG kernels existed, for
// Sample and the kernel both. The contract test alone cannot catch a
// change to Sample and the kernel together, which would silently
// reshuffle every seeded verdict and the results/ tables.
func TestSamplerStreamsGolden(t *testing.T) {
	far := hardFar(t, 11)
	u64, err := Uniform(64)
	if err != nil {
		t.Fatal(err)
	}
	mustAlias := func(d Dist) BatchSampler {
		s, err := NewAliasSampler(d)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mustUniform := func(n int) BatchSampler {
		s, err := NewUniformSampler(n)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cdf, err := NewCDFSampler(far)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		s    BatchSampler
		want uint64
	}{
		{"alias/hard-far-4096", mustAlias(far), 0xdb117331680a7ded},
		{"alias/uniform-64", mustAlias(u64), 0x4260c07892c45d35},
		{"alias/skewed-100", batchSamplers(t, 100)["alias"], 0xad9273e9c20facd9},
		{"cdf/hard-far-4096", cdf, 0x6e029cd38681ab87},
		{"uniform/64", mustUniform(64), 0x885fe2ef8158f092},
		{"uniform/100", mustUniform(100), 0xa6ed5daa2009cffc},
	} {
		t.Run(c.name, func(t *testing.T) {
			draws := make([]int, 4096)
			rng := rand.New(rand.NewPCG(1, 2))
			for i := range draws {
				draws[i] = c.s.Sample(rng)
			}
			if got := streamDigest(draws, rng.Uint64()); got != c.want {
				t.Errorf("Sample digest %#016x, want %#016x", got, c.want)
			}
			src := newPCG(1, 2)
			c.s.SampleInto(draws, src)
			if got := streamDigest(draws, src.Uint64()); got != c.want {
				t.Errorf("SampleInto digest %#016x, want %#016x", got, c.want)
			}
		})
	}
}

// TestCoinKeepExact checks that a cell's integer coin m < keep decides
// as the float coin m/2^53 < prob it replaces, for every cell of the
// tables under test and for edge probabilities: zero, one, a small
// negative drift, 2^-53, a subnormal and 0.5 ± one ulp. Both tests are
// monotone in m, so agreement at m = keep−1 and m = keep, each clamped
// to [0, 2^53−1], settles every coin.
func TestCoinKeepExact(t *testing.T) {
	type coin struct {
		prob float64
		keep uint64
	}
	var coins []coin
	for _, p := range []float64{
		0, 1, -0x1p-52, 0x1p-53, math.SmallestNonzeroFloat64,
		math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1),
	} {
		coins = append(coins, coin{p, coinKeep(p)})
	}
	tables := []Dist{hardFar(t, 11), hardFar(t, 5), mustUniform(t, 64), mustUniform(t, 100)}
	for _, n := range contractDomains {
		tables = append(tables, skewed(t, n))
	}
	for _, d := range tables {
		cells, prob := vose(d.p)
		for i, c := range cells {
			coins = append(coins, coin{prob[i], c.keep})
		}
	}
	for _, c := range coins {
		for _, m := range []int64{int64(c.keep) - 1, int64(c.keep)} {
			m = min(max(m, 0), coinMask)
			if got, want := uint64(m) < c.keep, float64(m)/(1<<53) < c.prob; got != want {
				t.Errorf("prob %v, keep %d: coin %d keeps %v, the float test %v", c.prob, c.keep, m, got, want)
			}
		}
	}
}

// TestUniformSamplerBounds checks range and rough uniformity of the fast
// path.
func TestUniformSamplerBounds(t *testing.T) {
	const n, total = 8, 16000
	u, err := NewUniformSampler(n)
	if err != nil {
		t.Fatal(err)
	}
	if u.N() != n {
		t.Fatalf("N() = %d, want %d", u.N(), n)
	}
	buf := make([]int, total)
	u.SampleInto(buf, newPCG(1, 2))
	counts := make([]int, n)
	for _, s := range buf {
		if s < 0 || s >= n {
			t.Fatalf("sample %d outside [0,%d)", s, n)
		}
		counts[s]++
	}
	want := float64(total) / n
	for i, c := range counts {
		if float64(c) < 0.8*want || float64(c) > 1.2*want {
			t.Fatalf("element %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
	if _, err := NewUniformSampler(0); err == nil {
		t.Fatal("NewUniformSampler(0) succeeded")
	}
}

// TestNopSampler pins the no-op sampler's contract: domain size 1, always
// element 0, zero randomness consumed.
func TestNopSampler(t *testing.T) {
	s := NopSampler{}
	if s.N() != 1 {
		t.Fatalf("N() = %d, want 1", s.N())
	}
	src := newPCG(3, 4)
	probe := newPCG(3, 4)
	buf := []int{9, 9, 9}
	s.SampleInto(buf, src)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("element %d = %d, want 0", i, v)
		}
	}
	if s.Sample(rand.New(src)) != 0 {
		t.Fatal("Sample != 0")
	}
	if src.Uint64() != probe.Uint64() {
		t.Fatal("NopSampler consumed randomness")
	}
}

// TestSampleIntoNoAllocs guards the zero-allocation contract of the
// batch kernel and the per-element reference path for every sampler
// kind.
func TestSampleIntoNoAllocs(t *testing.T) {
	for name, s := range batchSamplers(t, 64) {
		src := newPCG(7, 9)
		rng := rand.New(rand.NewPCG(7, 9))
		buf := make([]int, 128)
		if allocs := testing.AllocsPerRun(100, func() { s.SampleInto(buf, src) }); allocs != 0 {
			t.Errorf("%s: SampleInto allocates %.1f per batch, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { SampleInto(s, buf, rng) }); allocs != 0 {
			t.Errorf("%s: dist.SampleInto allocates %.1f per batch, want 0", name, allocs)
		}
	}
}

func BenchmarkAliasSamplePerElement(b *testing.B) {
	d, err := Uniform(1024)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewAliasSampler(d)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]int, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range buf {
			buf[j] = s.Sample(rng)
		}
	}
}

// BenchmarkAliasSampleInto times the alias kernel's full-table loop:
// over U_1024 every cell keeps its own element, so only the index words
// are read.
func BenchmarkAliasSampleInto(b *testing.B) {
	d, err := Uniform(1024)
	if err != nil {
		b.Fatal(err)
	}
	s := mustAliasSampler(b, d)
	src := newPCG(1, 2)
	buf := make([]int, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(buf, src)
	}
}

// BenchmarkAliasFar draws one player's q=642 samples at n=4096 and
// reports ns/draw. On the hard far instance half the alias cells are
// split between two elements and the coin goes each way about half the
// time: "kernel" times the kernel's split-cell loop there, and
// "reference" the *rand.Rand reference path. "uniform" times the
// full-table loop over U_4096 at the same geometry.
func BenchmarkAliasFar(b *testing.B) {
	far := mustAliasSampler(b, hardFar(b, 11))
	u, err := Uniform(4096)
	if err != nil {
		b.Fatal(err)
	}
	uniform := mustAliasSampler(b, u)
	buf := make([]int, 642)
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/draw")
	}
	kernel := func(s *AliasSampler) func(*testing.B) {
		return func(b *testing.B) {
			src := newPCG(1, 2)
			for i := 0; i < b.N; i++ {
				s.SampleInto(buf, src)
			}
			report(b)
		}
	}
	b.Run("kernel", kernel(far))
	b.Run("reference", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < b.N; i++ {
			SampleInto(far, buf, rng)
		}
		report(b)
	})
	b.Run("uniform", kernel(uniform))
}

func BenchmarkUniformSampleInto(b *testing.B) {
	s, err := NewUniformSampler(1024)
	if err != nil {
		b.Fatal(err)
	}
	src := newPCG(1, 2)
	buf := make([]int, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(buf, src)
	}
}
