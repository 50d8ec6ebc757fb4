package engine

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/distributed-uniformity/dut/internal/dist"
)

// reuseSamplers are the samplers the reseeding contract is checked
// through: alias kernels over a power-of-two and a non-power-of-two
// skewed domain.
func reuseSamplers(t *testing.T) map[string]dist.Sampler {
	t.Helper()
	skewedAlias := func(n int) dist.Sampler {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(i%7 + 1)
		}
		d, err := dist.FromWeights(w)
		if err != nil {
			t.Fatal(err)
		}
		s, err := dist.NewAliasSampler(d)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]dist.Sampler{
		"alias-64":  skewedAlias(64),
		"alias-100": skewedAlias(100),
	}
}

// TestReusableRNGMatchesNodeRNG pins the reseeding contract: a single
// ReusableRNG stepped through (shared, player) coordinates must emit
// exactly the streams fresh NodeRNG allocations would, and a player's
// SeedNode + SampleInto + private Float64 coin must equal NodeRNG +
// per-element Sample + coin for every sampler.
func TestReusableRNGMatchesNodeRNG(t *testing.T) {
	r := NewReusableRNG()
	for _, shared := range []uint64{0, 1, 0xfeedface, ^uint64(0)} {
		for player := 0; player < 6; player++ {
			got := r.SeedNode(shared, player)
			want := NodeRNG(shared, player)
			for i := 0; i < 16; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("shared %#x player %d draw %d: %d, want %d", shared, player, i, g, w)
				}
			}
		}
	}
	const q = 97
	got, want := make([]int, q), make([]int, q)
	for name, s := range reuseSamplers(t) {
		for _, shared := range []uint64{0, 0xfeedface} {
			for player := 0; player < 6; player++ {
				rng := r.SeedNode(shared, player)
				r.SampleInto(s, got)
				gotCoin := rng.Float64()
				ref := NodeRNG(shared, player)
				dist.SampleInto(s, want, ref)
				wantCoin := ref.Float64()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s shared %#x player %d: sample %d is %d, want %d", name, shared, player, i, got[i], want[i])
					}
				}
				if gotCoin != wantCoin {
					t.Fatalf("%s shared %#x player %d: coin after the samples %v, want %v", name, shared, player, gotCoin, wantCoin)
				}
			}
		}
	}
}

// TestNodeSeedBlockMatchesPerTrial pins the block pass to the per-trial
// derivation: for every run length 1–64, and a 64-trial run derived in
// two passes split at 16, coin i is SharedSeed(seed, first+i), and the
// generator SeedPCG seats at pair i draws the words and then the alias
// samples and word that NodeRNG(coin i, player) does. first reaches
// math.MaxInt64 - 63, so the run's last trial is the last one a
// ROUND_BATCH can name, and player reaches the widest node id.
func TestNodeSeedBlockMatchesPerTrial(t *testing.T) {
	const seed = 0x5eed5eed
	alias := reuseSamplers(t)["alias-100"]
	r := NewReusableRNG()
	coins, seeds := make([]uint64, 64), make([]PCGSeed, 64)
	got, want := make([]int, 16), make([]int, 16)
	check := func(first, player, n int) {
		t.Helper()
		for i, coin := range coins[:n] {
			if w := SharedSeed(seed, first+i); coin != w {
				t.Fatalf("first %d player %d run %d: coin %d is %#x, want %#x", first, player, n, i, coin, w)
			}
			rng, ref := r.SeedPCG(seeds[i]), NodeRNG(coin, player)
			for d := 0; d < 4; d++ {
				if g, w := rng.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("first %d player %d run %d: trial %d draw %d is %d, want %d", first, player, n, i, d, g, w)
				}
			}
			rng, ref = r.SeedPCG(seeds[i]), NodeRNG(coin, player)
			r.SampleInto(alias, got)
			dist.SampleInto(alias, want, ref)
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("first %d player %d run %d: trial %d sample %d is %d, want %d", first, player, n, i, d, got[d], want[d])
				}
			}
			if g, w := rng.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("first %d player %d run %d: trial %d draw after the samples is %d, want %d", first, player, n, i, g, w)
			}
		}
	}
	for _, first := range []int{0, 1 << 40, math.MaxInt64 - 63} {
		for _, player := range []int{0, 1, math.MaxUint32} {
			for n := 1; n <= 64; n++ {
				clear(coins)
				clear(seeds)
				NodeSeedBlock(coins[:n], seeds, seed, first, player)
				check(first, player, n)
			}
			clear(coins)
			clear(seeds)
			NodeSeedBlock(coins[:16], seeds, seed, first, player)
			NodeSeedBlock(coins[16:], seeds[16:], seed, first+16, player)
			check(first, player, 64)
		}
	}
}

// BenchmarkNodeSeeds times the public coins and seated player streams of
// a 256-trial ROUND_BATCH, in ns per trial: "per-trial" runs SharedSeed
// then SeedNode for each trial in turn, and "block" derives each 16
// trials' coins and seed pairs in one NodeSeedBlock pass, then seats
// each pair, as a cluster node's vote does. Run it by hand:
//
//	go test -run '^$' -bench NodeSeeds -cpu 1 ./internal/engine
func BenchmarkNodeSeeds(b *testing.B) {
	const (
		count  = 256
		run    = 16
		player = 1234
	)
	r := NewReusableRNG()
	var sink uint64
	perTrial := func(base uint64, first int) {
		for j := 0; j < count; j++ {
			coin := SharedSeed(base, first+j)
			r.SeedNode(coin, player)
			sink ^= coin
		}
	}
	block := func(base uint64, first int) {
		var (
			coins [run]uint64
			seeds [run]PCGSeed
		)
		for j := 0; j < count; j += run {
			NodeSeedBlock(coins[:], seeds[:], base, first+j, player)
			for i := range coins {
				r.SeedPCG(seeds[i])
				sink ^= coins[i]
			}
		}
	}
	for _, bc := range []struct {
		name string
		pass func(base uint64, first int)
	}{{"per-trial", perTrial}, {"block", block}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.pass(0x5eed, i*count)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*count), "ns/trial")
		})
	}
	_ = sink
}

// TestReusableRNGMatchesTrialRNG is the same contract for the per-trial
// lane.
func TestReusableRNGMatchesTrialRNG(t *testing.T) {
	r := NewReusableRNG()
	for _, seed := range []uint64{0, 42, 0x9e3779b97f4a7c15} {
		for trial := 0; trial < 6; trial++ {
			got := r.SeedTrial(seed, trial)
			want := TrialRNG(seed, trial)
			for i := 0; i < 16; i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %#x trial %d draw %d: %d, want %d", seed, trial, i, g, w)
				}
			}
		}
	}
}

// TestReusableRNGReseedsCleanly checks that a partially-drained stream
// leaves no state behind after the next reseed.
func TestReusableRNGReseedsCleanly(t *testing.T) {
	r := NewReusableRNG()
	r.SeedNode(7, 3).Uint64() // drain one draw
	got := r.SeedNode(9, 1)
	want := NodeRNG(9, 1)
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("post-reseed draw %d, want %d", g, w)
	}
}

// TestReusableRNGSeedsAllocateOnce guards the whole point of the type:
// reseeding is allocation-free, and construction allocates twice, the
// ReusableRNG with its PCG held by value and the rand.Rand over it.
func TestReusableRNGSeedsAllocateOnce(t *testing.T) {
	r := NewReusableRNG()
	var sink *rand.Rand
	allocs := testing.AllocsPerRun(100, func() {
		sink = r.SeedNode(5, 2)
		sink = r.SeedTrial(5, 2)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("reseed allocates %.1f per call pair, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r = NewReusableRNG() }); allocs != 2 {
		t.Fatalf("NewReusableRNG allocates %.1f, want 2", allocs)
	}
}

// TestReusableRNGSampleIntoNoAllocs holds the backends' hot sampling
// entry at zero allocations.
func TestReusableRNGSampleIntoNoAllocs(t *testing.T) {
	r := NewReusableRNG()
	buf := make([]int, 128)
	for name, s := range reuseSamplers(t) {
		allocs := testing.AllocsPerRun(100, func() {
			r.SeedNode(5, 2)
			r.SampleInto(s, buf)
		})
		if allocs != 0 {
			t.Errorf("%s: SampleInto allocates %.1f per batch, want 0", name, allocs)
		}
	}
}
