package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/distributed-uniformity/dut/internal/dist"
)

func TestFeistelPermuteIsBijective(t *testing.T) {
	for _, m := range []int{1, 2, 3, 5, 8, 10} {
		for _, seed := range []uint64{0, 1, 0xdeadbeef} {
			n := 1 << m
			seen := make([]bool, n)
			for x := 0; x < n; x++ {
				y := feistelPermute(uint64(x), m, seed)
				if y >= uint64(n) {
					t.Fatalf("m=%d seed=%d: image %d out of range", m, seed, y)
				}
				if seen[y] {
					t.Fatalf("m=%d seed=%d: collision at image %d", m, seed, y)
				}
				seen[y] = true
			}
		}
	}
}

func TestFeistelPermuteVariesWithSeed(t *testing.T) {
	const m = 10
	same := 0
	for x := 0; x < 1<<m; x++ {
		if feistelPermute(uint64(x), m, 1) == feistelPermute(uint64(x), m, 2) {
			same++
		}
	}
	// Two random permutations of 1024 elements agree on ~1 point.
	if same > 20 {
		t.Errorf("permutations under different seeds agree on %d/1024 points", same)
	}
}

func TestQuickFeistelBijective(t *testing.T) {
	prop := func(seed uint64, a, b uint16) bool {
		const m = 12
		x := uint64(a) % (1 << m)
		y := uint64(b) % (1 << m)
		if x == y {
			return true
		}
		return feistelPermute(x, m, seed) != feistelPermute(y, m, seed)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewHashRuleValidation(t *testing.T) {
	if _, err := NewHashRule(100, 2); err == nil {
		t.Error("non-power-of-two domain accepted")
	}
	if _, err := NewHashRule(16, 0); err == nil {
		t.Error("l=0 accepted")
	}
	if _, err := NewHashRule(16, 5); err == nil {
		t.Error("l > log2(n) accepted")
	}
	r, err := NewHashRule(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bits() != 3 || r.Buckets() != 8 {
		t.Errorf("bits=%d buckets=%d", r.Bits(), r.Buckets())
	}
	if _, err := r.Message(0, nil, 1, testRand(0)); err == nil {
		t.Error("no samples accepted")
	}
	if _, err := r.Message(0, []int{16}, 1, testRand(0)); err == nil {
		t.Error("out-of-domain sample accepted")
	}
}

func TestHashRuleBucketsAreBalanced(t *testing.T) {
	const (
		n = 1024
		l = 4
	)
	r, err := NewHashRule(n, l)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 99} {
		counts := make([]int, r.Buckets())
		for x := 0; x < n; x++ {
			m, err := r.Message(0, []int{x}, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			counts[m]++
		}
		want := n / r.Buckets()
		for b, c := range counts {
			if c != want {
				t.Fatalf("seed %d: bucket %d has %d elements, want %d", seed, b, c, want)
			}
		}
	}
}

func TestHashRuleSharedSeedDeterminism(t *testing.T) {
	r, _ := NewHashRule(256, 4)
	for x := 0; x < 256; x += 17 {
		a, err := r.Message(0, []int{x}, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Message(3, []int{x}, 42, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("players disagree on bucket of %d under the same seed", x)
		}
	}
}

func TestNewCollisionRefereeValidation(t *testing.T) {
	if _, err := NewCollisionReferee(64, 0, 10, 0.5); err == nil {
		t.Error("zero buckets accepted")
	}
	if _, err := NewCollisionReferee(64, 8, 1, 0.5); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewCollisionReferee(64, 8, 10, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	r, err := NewCollisionReferee(64, 8, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Decide([]Message{9}); err == nil {
		t.Error("out-of-range bucket accepted")
	}
	if r.Threshold() <= 0 {
		t.Error("threshold not positive")
	}
}

func TestCollisionRefereeCounts(t *testing.T) {
	r, err := NewCollisionReferee(64, 4, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold = C(4,2) * (1/4 + eps^2/128) ≈ 1.51: two collisions reject.
	ok, err := r.Decide([]Message{0, 1, 2, 3})
	if err != nil || !ok {
		t.Errorf("distinct buckets: %v %v", ok, err)
	}
	ok, err = r.Decide([]Message{0, 0, 1, 1})
	if err != nil || ok {
		t.Errorf("two collisions: %v %v", ok, err)
	}
}

func TestACTTesterSeparatesAtRecommendedK(t *testing.T) {
	const (
		n   = 1024
		l   = 6
		eps = 0.5
	)
	k := RecommendedACTPlayers(n, l, eps)
	p, err := NewACTTester(n, k, l, eps)
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxSamplesPerPlayer() != 1 {
		t.Fatalf("per-player samples = %d, want 1", p.MaxSamplesPerPlayer())
	}
	uniform, _ := dist.Uniform(n)
	h, _ := dist.NewHardInstance(9, eps)
	far, _, err := h.RandomPerturbed(testRand(71))
	if err != nil {
		t.Fatal(err)
	}
	ok, pNull, pFar, err := separates(p, uniform, far, 2.0/3, 200, 72)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("ACT tester fails at k=%d: accept(U)=%v accept(far)=%v", k, pNull, pFar)
	}
}

func TestACTTesterStarvedFails(t *testing.T) {
	// An order of magnitude fewer players than recommended must leave the
	// two cases indistinguishable.
	const (
		n   = 4096
		l   = 4
		eps = 0.25
	)
	k := RecommendedACTPlayers(n, l, eps) / 40
	p, err := NewACTTester(n, k, l, eps)
	if err != nil {
		t.Fatal(err)
	}
	uniform, _ := dist.Uniform(n)
	h, _ := dist.NewHardInstance(11, eps)
	far, _, err := h.RandomPerturbed(testRand(73))
	if err != nil {
		t.Fatal(err)
	}
	estU, err := estimate(p, uniform, 300, 74)
	if err != nil {
		t.Fatal(err)
	}
	estF, err := estimate(p, far, 300, 75)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(estU.P-estF.P) > 0.15 {
		t.Errorf("starved ACT tester separates: U=%v far=%v", estU.P, estF.P)
	}
}

func TestRecommendedACTPlayersScaling(t *testing.T) {
	// k ~ n / (2^{l/2} eps^2): doubling l divides k by 2; doubling n
	// doubles k.
	k1 := RecommendedACTPlayers(4096, 4, 0.5)
	k2 := RecommendedACTPlayers(4096, 6, 0.5)
	if ratio := float64(k1) / float64(k2); ratio < 1.8 || ratio > 2.2 {
		t.Errorf("l+2 gave k ratio %v, want ~2", ratio)
	}
	k3 := RecommendedACTPlayers(8192, 4, 0.5)
	if ratio := float64(k3) / float64(k1); ratio < 1.8 || ratio > 2.2 {
		t.Errorf("2x n gave k ratio %v, want ~2", ratio)
	}
}

func TestNewACTTesterValidation(t *testing.T) {
	if _, err := NewACTTester(100, 10, 2, 0.5); err == nil {
		t.Error("non-power-of-two domain accepted")
	}
	if _, err := NewACTTester(64, 1, 2, 0.5); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewACTTester(64, 10, 2, 0); err == nil {
		t.Error("eps=0 accepted")
	}
}

// BenchmarkHashRuleMessage times one player's message under the [ACT18]
// hash at cluster-short's geometry, n = 64 and l = 4: a four-round
// Feistel permutation of one sample, cycle-walked into [n], keyed by a
// fresh public coin per call. Run it by hand:
//
//	go test -run '^$' -bench HashRuleMessage -cpu 1 ./internal/core
func BenchmarkHashRuleMessage(b *testing.B) {
	const n, l = 64, 4
	rule, err := NewHashRule(n, l)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(36, 0xac7))
	samples := make([][]int, 256)
	coins := make([]uint64, len(samples))
	for i := range samples {
		samples[i] = []int{rng.IntN(n)}
		coins[i] = rng.Uint64()
	}
	var sink Message
	for i := 0; i < b.N; i++ {
		j := i % len(samples)
		m, err := rule.Message(0, samples[j], coins[j], nil)
		if err != nil {
			b.Fatal(err)
		}
		sink ^= m
	}
	_ = sink
}
