package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// HashRule is the public-coin local rule of the single-sample tester in the
// spirit of Acharya-Canonne-Tyagi (2018): every player holds one sample
// from a power-of-two domain [n] and sends the index of its bucket under a
// shared random balanced partition of [n] into B = 2^l buckets.
//
// The partition applies a pseudorandom permutation of [n] — a four-round
// Feistel network keyed by the shared seed, cycle-walked down to [n] —
// and then keeps the top l bits, yielding exactly n/B elements per bucket.
// All players of a run agree on the permutation. Because the partition is
// balanced, the bucket distribution is exactly uniform on [B] when the
// input is uniform on [n]; when the input is eps-far, a random partition
// retains an expected collision excess of about eps^2/n over 1/B. (A
// weaker structured hash, such as an affine map, provably fails here:
// paired +/- perturbations land in the same bucket and cancel.)
type HashRule struct {
	n       int
	bitsOut int
}

var _ LocalRule = (*HashRule)(nil)

// NewHashRule builds the rule for a power-of-two domain n and message
// length l with 1 <= l <= log2(n).
func NewHashRule(n, l int) (*HashRule, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("core: hash rule needs a power-of-two domain, got %d", n)
	}
	logN := bits.Len(uint(n)) - 1
	if l < 1 || l > logN {
		return nil, fmt.Errorf("core: hash rule message length %d outside [1,%d]", l, logN)
	}
	return &HashRule{n: n, bitsOut: l}, nil
}

// Bits implements LocalRule.
func (h *HashRule) Bits() int { return h.bitsOut }

// Buckets returns B = 2^l.
func (h *HashRule) Buckets() int { return 1 << h.bitsOut }

// Message implements LocalRule: it hashes the player's first sample. The
// rule is built for the single-sample regime; extra samples are ignored,
// matching the model of [ACT18] where each node holds exactly one draw.
func (h *HashRule) Message(_ int, samples []int, shared uint64, _ *rand.Rand) (Message, error) {
	if len(samples) == 0 {
		return 0, fmt.Errorf("core: hash rule with no samples")
	}
	x := samples[0]
	if x < 0 || x >= h.n {
		return 0, fmt.Errorf("core: sample %d outside domain of size %d", x, h.n)
	}
	return Message(h.bucket(uint64(x), shared)), nil
}

// bucket applies the shared pseudorandom permutation and keeps the top l
// bits.
func (h *HashRule) bucket(x, shared uint64) uint64 {
	logN := bits.Len(uint(h.n)) - 1
	y := feistelPermute(x, logN, shared)
	return y >> uint(logN-h.bitsOut)
}

// feistelPermute is a keyed bijection of [0, 2^m): a four-round balanced
// Feistel network on 2*ceil(m/2) bits, cycle-walked back into the domain
// (at most one extra bit, so the expected walk length is under two).
func feistelPermute(x uint64, m int, seed uint64) uint64 {
	if m <= 0 {
		return x
	}
	half := (m + 1) / 2
	mask := (uint64(1) << half) - 1
	domain := uint64(1) << m
	y := x
	for {
		l := y >> half
		r := y & mask
		for round := 0; round < 4; round++ {
			//lint:ignore dut/seedpurity Feistel round keying, not stream derivation: the permutation must mix the seed into every round function
			l, r = r, l^(mix64(r^seed^uint64(round)*0x9e3779b97f4a7c15)&mask)
		}
		y = l<<half | r
		if y < domain {
			return y
		}
	}
}

// mix64 is the splitmix64 finalizer, a fast full-avalanche 64-bit mixer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CollisionReferee accepts iff the number of colliding message pairs is at
// most its threshold — a uniformity collision test over the bucket domain,
// applied to the k hashed single samples.
type CollisionReferee struct {
	buckets   int
	threshold float64
}

var _ Referee = (*CollisionReferee)(nil)

// NewCollisionReferee builds the referee for B buckets and k players with
// proximity eps over the original domain n. Under the uniform input the
// bucket histogram is exactly uniform, with expected collisions C(k,2)/B;
// under an eps-far input the expected excess collision probability is
// about eps^2/n, so the threshold splits the difference at
// C(k,2) (1/B + eps^2/(2n)).
func NewCollisionReferee(n, buckets, k int, eps float64) (*CollisionReferee, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("core: referee over %d buckets", buckets)
	}
	if k < 2 {
		return nil, fmt.Errorf("core: collision referee needs k >= 2, got %d", k)
	}
	if eps <= 0 || eps > 2 {
		return nil, fmt.Errorf("core: collision referee eps %v outside (0,2]", eps)
	}
	pairs := float64(k) * float64(k-1) / 2
	threshold := pairs * (1/float64(buckets) + eps*eps/(2*float64(n)))
	return &CollisionReferee{buckets: buckets, threshold: threshold}, nil
}

// Threshold returns the acceptance threshold on the collision count.
func (r *CollisionReferee) Threshold() float64 { return r.threshold }

// Decide implements Referee. Up to 64 buckets (messages of at most 6
// bits) count into an array on the stack, so the decide allocates
// nothing; wider messages count into a fresh slice.
func (r *CollisionReferee) Decide(msgs []Message) (bool, error) {
	var small [64]int64
	var counts []int64
	if r.buckets <= len(small) {
		counts = small[:r.buckets]
	} else {
		counts = make([]int64, r.buckets)
	}
	for _, m := range msgs {
		b := uint64(m)
		if b >= uint64(r.buckets) {
			return false, fmt.Errorf("core: bucket message %d out of range %d", b, r.buckets)
		}
		counts[b]++
	}
	var coll int64
	for _, c := range counts {
		coll += c * (c - 1) / 2
	}
	return float64(coll) <= r.threshold, nil
}

// NewACTTester assembles the single-sample l-bit protocol: k players with
// one sample each, the shared-partition HashRule, and the collision
// referee. RecommendedACTPlayers gives the player count at which it
// separates, k = Theta(n / (2^{l/2} eps^2)).
func NewACTTester(n, k, l int, eps float64) (*SMP, error) {
	rule, err := NewHashRule(n, l)
	if err != nil {
		return nil, err
	}
	referee, err := NewCollisionReferee(n, rule.Buckets(), k, eps)
	if err != nil {
		return nil, err
	}
	return NewSMP(k, 1, rule, referee)
}

// RecommendedACTPlayers returns the player count at which the single-sample
// l-bit tester separates with probability 2/3; the constant is validated by
// experiment E11.
func RecommendedACTPlayers(n, l int, eps float64) int {
	return int(math.Ceil(8*float64(n)/(math.Pow(2, float64(l)/2)*eps*eps))) + 2
}
