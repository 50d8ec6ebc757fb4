package dist

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"math/rand/v2"
	"testing"
)

// batchSamplers builds one instance of every BatchSampler in the package
// over a common skewed distribution (uniform for the samplers that fix
// their own distribution).
func batchSamplers(t *testing.T, n int) map[string]BatchSampler {
	t.Helper()
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(i%7 + 1)
	}
	d, err := FromWeights(w)
	if err != nil {
		t.Fatal(err)
	}
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

// contractDomains are the domain sizes the stream-contract tests run
// each sampler kind over: a power of two, where IntN masks one draw, and
// a non-power of two, where it takes Lemire's multiply.
var contractDomains = []int{64, 100}

// TestSampleIntoMatchesSample is the stream-compatibility property test:
// for every BatchSampler, domain, seed, and batch-size split, the kernel
// must consume the same PCG draws — and yield the same elements — as
// repeated Sample on a rand.Rand over that PCG.
func TestSampleIntoMatchesSample(t *testing.T) {
	for _, name := range []string{"alias", "cdf", "uniform", "nop"} {
		t.Run(name, func(t *testing.T) {
			for _, n := range contractDomains {
				checkStreamContract(t, batchSamplers(t, n)[name], 257)
			}
		})
	}
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
		src := rand.NewPCG(3, 3^0xabcdef)
		s.SampleInto(make([]int, total), src)
		if words := wordsConsumed(rand.NewPCG(3, 3^0xabcdef), src); words <= total {
			t.Fatalf("%d draws consumed %d words; the rejection loop never ran", total, words)
		}
	})
}

// checkStreamContract checks s's kernel against repeated Sample over
// eight seeds and several batch splits of total draws, elements and
// post-batch PCG state both.
func checkStreamContract(t *testing.T, s BatchSampler, total int) {
	t.Helper()
	for seed := uint64(0); seed < 8; seed++ {
		want := make([]int, total)
		seqRNG := rand.New(rand.NewPCG(seed, seed^0xabcdef))
		for i := range want {
			want[i] = s.Sample(seqRNG)
		}
		after := seqRNG.Uint64()
		// Fill the same total through batches of varying sizes,
		// exercising single-element and large batches and a ragged tail.
		for _, chunk := range []int{1, 3, 16, total} {
			src := rand.NewPCG(seed, seed^0xabcdef)
			got := make([]int, total)
			for lo := 0; lo < total; lo += chunk {
				s.SampleInto(got[lo:min(lo+chunk, total)], src)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed %d chunk %d: element %d is %d via SampleInto, %d via Sample",
						s.N(), seed, chunk, i, got[i], want[i])
				}
			}
			// Both paths must leave the generator in the same state.
			if a := src.Uint64(); a != after {
				t.Fatalf("n=%d seed %d chunk %d: PCG states diverge after batch (%d vs %d)", s.N(), seed, chunk, a, after)
			}
		}
	}
}

// wordsConsumed counts the Uint64 words that take a PCG from start to
// the state of end.
func wordsConsumed(start, end *rand.PCG) int {
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
				s.SampleInto(got, rand.NewPCG(5, 11))
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("n=%d element %d: kernel %d, reference %d", n, i, got[i], ref[i])
					}
				}
			}
		})
	}
}

// hardFar is the far input of the seed-1 benchmark runs: the Section 3
// hard instance at n=4096 (ell=11, eps=0.5) under the perturbation drawn
// from seed 1.
func hardFar(t testing.TB) Dist {
	t.Helper()
	h, err := NewHardInstance(11, 0.5)
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
	far := hardFar(t)
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
			src := rand.NewPCG(1, 2)
			c.s.SampleInto(draws, src)
			if got := streamDigest(draws, src.Uint64()); got != c.want {
				t.Errorf("SampleInto digest %#016x, want %#016x", got, c.want)
			}
		})
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
	u.SampleInto(buf, rand.NewPCG(1, 2))
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
	src := rand.NewPCG(3, 4)
	probe := rand.NewPCG(3, 4)
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
		src := rand.NewPCG(7, 9)
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

func BenchmarkAliasSampleInto(b *testing.B) {
	d, err := Uniform(1024)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewAliasSampler(d)
	if err != nil {
		b.Fatal(err)
	}
	src := rand.NewPCG(1, 2)
	buf := make([]int, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(buf, src)
	}
}

// BenchmarkAliasFar draws one player's q=642 samples from the hard far
// instance at n=4096, where half the alias cells are split between two
// elements and the coin goes each way about half the time. It reports
// ns/draw for the PCG kernel and for the *rand.Rand reference path.
func BenchmarkAliasFar(b *testing.B) {
	s, err := NewAliasSampler(hardFar(b))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]int, 642)
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(buf)), "ns/draw")
	}
	b.Run("kernel", func(b *testing.B) {
		src := rand.NewPCG(1, 2)
		for i := 0; i < b.N; i++ {
			s.SampleInto(buf, src)
		}
		report(b)
	})
	b.Run("reference", func(b *testing.B) {
		rng := rand.New(rand.NewPCG(1, 2))
		for i := 0; i < b.N; i++ {
			SampleInto(s, buf, rng)
		}
		report(b)
	})
}

func BenchmarkUniformSampleInto(b *testing.B) {
	s, err := NewUniformSampler(1024)
	if err != nil {
		b.Fatal(err)
	}
	src := rand.NewPCG(1, 2)
	buf := make([]int, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(buf, src)
	}
}
