package engine

import (
	"math/rand/v2"
	"testing"

	"github.com/distributed-uniformity/dut/internal/dist"
)

// sampleOnly hides a sampler's batch kernel, leaving the plain
// dist.Sampler a third-party implementation would provide.
type sampleOnly struct{ dist.Sampler }

// reuseSamplers are the samplers the reseeding contract is checked
// through: alias kernels over a power-of-two and a non-power-of-two
// skewed domain, and a Sample-only sampler that takes ReusableRNG's
// per-element fallback.
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
	alias100 := skewedAlias(100)
	return map[string]dist.Sampler{
		"alias-64":        skewedAlias(64),
		"alias-100":       alias100,
		"sample-only-100": sampleOnly{alias100},
	}
}

// TestReusableRNGMatchesNodeRNG pins the reseeding contract: a single
// ReusableRNG stepped through (shared, player) coordinates must emit
// exactly the streams fresh NodeRNG allocations would, and a player's
// SeedNode + SampleInto + private Float64 coin must equal NodeRNG +
// per-element Sample + coin for every sampler kind.
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
// reseeding is allocation-free.
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
}

// TestReusableRNGSampleIntoNoAllocs holds the backends' hot sampling
// entry at zero allocations, on the kernel and the fallback path both.
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
