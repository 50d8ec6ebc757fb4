package core

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// PackPlaneWord writes msgs, a run of at most 64 messages, into word w of
// each of the `bits` planes stored back to back in planes, `words` words
// per plane. That is the layout of a VOTE_BATCH frame's vote planes
// (DESIGN.md section 10), with trials as the lanes: bit b of msgs[j]
// becomes bit j of planes[b*words+w], so plane 0 alone is the packed
// 1-bit vote bitset. Each plane word is built in a register, with no
// branch on a message bit, and stored whole, so lanes at and above
// len(msgs) read zero. Message bits at or above `bits` are ignored;
// callers check widths first.
func PackPlaneWord(planes []uint64, words, w, bits int, msgs []Message) {
	msgs = msgs[:min(len(msgs), 64)]
	for b := 0; b < bits; b++ {
		var word uint64
		for j, m := range msgs {
			// b and j are below 64; the masks let the compiler drop its
			// oversized-shift handling.
			word |= uint64(m>>(uint(b)&63)&1) << (uint(j) & 63)
		}
		planes[b*words+w] = word
	}
}

// UnpackPlaneWord is PackPlaneWord's inverse over the same VOTE_BATCH
// plane layout: it rebuilds the message of lane j of word w of the
// `bits` planes and stores it at msgs[j*stride], for every lane whose
// slot lies within msgs, at most 64. A stride of 1 fills a run of
// messages; a stride of k fills one player's column of a trial-major
// block of k-message rows, which is how the opaque referee's decide
// rebuilds each trial's messages.
func UnpackPlaneWord(msgs []Message, stride int, planes []uint64, words, w, bits int) {
	if len(msgs) == 0 {
		return
	}
	var word [64]uint64
	for b := range word[:bits] {
		word[b] = planes[b*words+w]
	}
	lanes := min((len(msgs)-1)/stride+1, 64)
	for j := 0; j < lanes; j++ {
		var m Message
		for b, x := range word[:bits] {
			m |= Message(x>>(uint(j)&63)&1) << (uint(b) & 63)
		}
		msgs[j*stride] = m
	}
}

// SumThresholdReferee is the canonical r-bit referee: each player reports
// an r-bit magnitude (larger = more evidence against uniformity, e.g. a
// saturating collision count) and the referee rejects iff the values sum
// to at least T. For r = 1 it degenerates to counting raised flags —
// note the polarity is opposite to the 1-bit ThresholdRule convention,
// where bit 1 means accept. Decide sums the messages with no allocation;
// the networked referee decides whole batches of it word-parallel, from
// SumShape.
type SumThresholdReferee struct {
	// Bits is the message width r in [1,64] every player must honor.
	Bits int
	// T is the rejection threshold on the value sum; must be at least 1.
	// T larger than k*(2^Bits-1) is legal and accepts every slate.
	T int
}

var (
	_ Referee         = SumThresholdReferee{}
	_ AbsenteeAdvisor = SumThresholdReferee{}
)

func (r SumThresholdReferee) validate() error {
	if r.Bits < 1 || r.Bits > 64 {
		return fmt.Errorf("core: sum referee over %d-bit messages outside [1,64]", r.Bits)
	}
	if r.T < 1 {
		return fmt.Errorf("core: sum referee with threshold %d", r.T)
	}
	return nil
}

// Decide implements Referee: reject iff the message values sum to at
// least T. Messages wider than Bits are an error, matching the width
// check the networked referee applies to arriving votes.
func (r SumThresholdReferee) Decide(msgs []Message) (bool, error) {
	if err := r.validate(); err != nil {
		return false, err
	}
	if len(msgs) == 0 {
		return false, fmt.Errorf("core: sum referee over zero messages")
	}
	var sum uint64
	for i, m := range msgs {
		if r.Bits < 64 && m >= 1<<r.Bits {
			return false, fmt.Errorf("core: player %d message %#x wider than the referee's %d bits", i, uint64(m), r.Bits)
		}
		next := sum + uint64(m)
		if next < sum {
			return false, fmt.Errorf("core: sum referee value overflow at player %d", i)
		}
		sum = next
	}
	return sum < uint64(r.T), nil
}

// Absentee implements AbsenteeAdvisor: a missing player contributes
// nothing to a value sum, and substituting the 1-bit Accept constant
// would inject a spurious unit of evidence, so the referee decides over
// the received values only.
func (r SumThresholdReferee) Absentee() AbsenteePolicy { return AbsenteeOmit }

// SumShape classifies a referee as a T-sum-threshold rule over k r-bit
// messages — the r-bit counterpart of ThresholdShape. When ok, the
// referee's Decide over any full k-message slate equals "reject iff the
// values sum to at least t", which lets the networked referee evaluate a
// whole batch word-parallel over the packed value planes. Opaque
// referees return ok = false and fall back to per-trial decoding.
func SumShape(r Referee, k int) (t, msgBits int, ok bool) {
	if k < 1 {
		return 0, 0, false
	}
	sr, isSum := r.(SumThresholdReferee)
	if !isSum || sr.validate() != nil {
		return 0, 0, false
	}
	return sr.T, sr.Bits, true
}

// QuantizedCollisionRule is the Theorem 6.4 local rule: report the
// player's collision count, saturated into r bits as min(count, 2^r-1).
// It consumes no private randomness, so with a fixed shared seed the
// message is a deterministic, pointwise monotone function of r — the
// property experiment E21 uses to exhibit the 2^-Theta(r) information
// decay as a monotone acceptance gap.
type QuantizedCollisionRule struct {
	coll collisions
	bits int
	cap  int64
}

var (
	_ LocalRule = (*QuantizedCollisionRule)(nil)
	_ Instancer = (*QuantizedCollisionRule)(nil)
)

// NewQuantizedCollisionRule builds the rule for domain size n, q samples
// per player, and message width `bits` in [1,60].
func NewQuantizedCollisionRule(n, q, bits int) (*QuantizedCollisionRule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: quantized rule over domain %d", n)
	}
	if q < 0 {
		return nil, fmt.Errorf("core: quantized rule with %d samples", q)
	}
	if bits < 1 || bits > 60 {
		return nil, fmt.Errorf("core: quantized rule with %d message bits outside [1,60]", bits)
	}
	return &QuantizedCollisionRule{
		coll: sharedCollisions(n),
		bits: bits,
		cap:  int64(1)<<bits - 1,
	}, nil
}

// Message implements LocalRule.
func (r *QuantizedCollisionRule) Message(_ int, samples []int, _ uint64, _ *rand.Rand) (Message, error) {
	count, err := r.coll.count(samples)
	if err != nil {
		return Reject, err
	}
	if count > r.cap {
		count = r.cap
	}
	return Message(count), nil
}

// Bits implements LocalRule.
func (r *QuantizedCollisionRule) Bits() int { return r.bits }

// Instance implements Instancer: the same rule counting into a counter
// of its own.
func (r *QuantizedCollisionRule) Instance() LocalRule {
	in := *r
	in.coll = r.coll.instance()
	return &in
}

// QuantizedSumThreshold returns the referee threshold the r-bit tester
// pairs with QuantizedCollisionRule: two standard deviations above the
// expected total collision count under uniform, ceil(k*lambda +
// 2*sqrt(k*lambda)) + 1 with lambda = C(q,2)/n, approximating the null
// total as Poisson(k*lambda). Under uniform the sum stays below T with
// probability about 0.97; an eps-far distribution inflates every
// player's expected count by a (1+eps^2) factor.
func QuantizedSumThreshold(n, k, q int) int {
	lambda := float64(q) * float64(q-1) / 2 / float64(n)
	mean := float64(k) * lambda
	t := int(math.Ceil(mean+2*math.Sqrt(mean))) + 1
	if t < 1 {
		t = 1
	}
	return t
}

// NewQuantizedSumTester builds the Theorem 6.4 r-bit-message tester: k
// players each report their collision count saturated into `bits` bits,
// and a SumThresholdReferee rejects when the reported total crosses the
// QuantizedSumThreshold. At small r the saturation destroys most of the
// count's information and the tester goes blind — the 2^-Theta(r) regime
// the theorem bounds.
func NewQuantizedSumTester(n, k, q, bits int) (*SMP, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: quantized tester with %d players", k)
	}
	if q < 2 {
		return nil, fmt.Errorf("core: quantized tester needs q >= 2 per player, got %d", q)
	}
	local, err := NewQuantizedCollisionRule(n, q, bits)
	if err != nil {
		return nil, err
	}
	referee := SumThresholdReferee{Bits: bits, T: QuantizedSumThreshold(n, k, q)}
	return NewSMP(k, q, local, referee)
}
