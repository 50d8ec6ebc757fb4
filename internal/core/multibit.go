package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// Slate is the packed r-bit message slate the referee decides over: k
// players times r bits, stored as r bit-planes of ceil(k/64) words each.
// Bit i of plane b is bit b of player i's message, so plane 0 alone is
// exactly the packed vote bitset of the 1-bit protocol and an r-bit rule
// reads a player's value by gathering its lane across planes. The layout
// is shared with the VOTE_BATCH wire frame (DESIGN.md section 10), which
// packs the same planes with trials in place of players; PackPlaneWord
// and UnpackPlaneWord map messages to and from the lanes of one word.
type Slate struct {
	k     int
	bits  int
	words int
	// planes holds the r planes back to back: plane b occupies words
	// [b*words, (b+1)*words).
	planes []uint64
}

// NewSlate allocates a zeroed slate for k players of `bits`-bit messages.
func NewSlate(k, bits int) (*Slate, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: slate for %d players", k)
	}
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("core: slate with %d-bit messages outside [1,64]", bits)
	}
	words := (k + 63) / 64
	return &Slate{k: k, bits: bits, words: words, planes: make([]uint64, bits*words)}, nil
}

// Players returns k.
func (s *Slate) Players() int { return s.k }

// Bits returns the message width r.
func (s *Slate) Bits() int { return s.bits }

// Reset clears every plane.
func (s *Slate) Reset() {
	for i := range s.planes {
		s.planes[i] = 0
	}
}

// Plane returns plane b (bit b of every player's message), aliasing the
// slate's storage; the caller must not grow it.
func (s *Slate) Plane(b int) []uint64 {
	return s.planes[b*s.words : (b+1)*s.words]
}

// Set stores player i's message, overwriting any previous value. Message
// bits at or above Bits() are ignored.
func (s *Slate) Set(player int, m Message) {
	w, mask := player/64, uint64(1)<<(player%64)
	for b := 0; b < s.bits; b++ {
		if m>>b&1 == 1 {
			s.planes[b*s.words+w] |= mask
		} else {
			s.planes[b*s.words+w] &^= mask
		}
	}
}

// Get reads player i's message back out of the planes.
func (s *Slate) Get(player int) Message {
	w, mask := player/64, uint64(1)<<(player%64)
	var m Message
	for b := 0; b < s.bits; b++ {
		if s.planes[b*s.words+w]&mask != 0 {
			m |= 1 << b
		}
	}
	return m
}

// SetMessages packs a full k-message round into the slate. It rejects a
// wrong-length slice or a message wider than Bits(), so a rule whose
// Bits() understates its output cannot silently lose high bits.
func (s *Slate) SetMessages(msgs []Message) error {
	if len(msgs) != s.k {
		return fmt.Errorf("core: slate for %d players packed with %d messages", s.k, len(msgs))
	}
	for i, m := range msgs {
		if s.bits < 64 && m >= 1<<s.bits {
			return fmt.Errorf("core: player %d message %#x wider than the slate's %d bits", i, uint64(m), s.bits)
		}
	}
	for w := 0; w < s.words; w++ {
		PackPlaneWord(s.planes, s.words, w, s.bits, msgs[w*64:min(w*64+64, s.k)])
	}
	return nil
}

// PackPlaneWord writes msgs, a run of at most 64 messages, into word w of
// each of the `bits` planes stored back to back in planes, `words` words
// per plane — the layout of a Slate and of a VOTE_BATCH frame: bit b of
// msgs[j] becomes bit j of planes[b*words+w]. Each plane word is built in
// a register, with no branch on a message bit, and stored whole, so lanes
// at and above len(msgs) read zero. Message bits at or above `bits` are
// ignored; callers check widths first.
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

// UnpackPlaneWord is PackPlaneWord's inverse: it rebuilds the message of
// lane j of word w of the `bits` planes and stores it at msgs[j*stride],
// for every lane whose slot lies within msgs, at most 64. A stride of 1
// fills a run of messages; a stride of k fills one player's column of a
// trial-major block of k-message rows.
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

// SlateDecider is the allocation-free r-bit referee path: referees that
// can decide straight off the packed planes implement it, and the SMP
// scratch runner (and the batch evaluators downstream) prefer it over
// expanding every message. It is the r-bit analogue of the private
// bitsDecider fast path the 1-bit threshold family uses.
type SlateDecider interface {
	// DecideSlate returns the verdict for one full round; the slate's
	// width must match the referee's expected message width.
	DecideSlate(s *Slate) (bool, error)
}

// SumThresholdReferee is the canonical r-bit referee: each player reports
// an r-bit magnitude (larger = more evidence against uniformity, e.g. a
// saturating collision count) and the referee rejects iff the values sum
// to at least T. For r = 1 it degenerates to counting raised flags —
// note the polarity is opposite to the 1-bit ThresholdRule convention,
// where bit 1 means accept. Decide sums lanes; DecideSlate sums planes
// word-parallel (popcount of plane b contributes 2^b per set lane).
type SumThresholdReferee struct {
	// Bits is the message width r in [1,64] every player must honor.
	Bits int
	// T is the rejection threshold on the value sum; must be at least 1.
	// T larger than k*(2^Bits-1) is legal and accepts every slate.
	T int
}

var (
	_ Referee         = SumThresholdReferee{}
	_ SlateDecider    = SumThresholdReferee{}
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

// DecideSlate implements SlateDecider via weighted plane popcounts.
func (r SumThresholdReferee) DecideSlate(s *Slate) (bool, error) {
	if err := r.validate(); err != nil {
		return false, err
	}
	if s == nil || s.k == 0 {
		return false, fmt.Errorf("core: sum referee over an empty slate")
	}
	if s.bits != r.Bits {
		return false, fmt.Errorf("core: %d-bit slate decided by a %d-bit sum referee", s.bits, r.Bits)
	}
	var sum uint64
	for b := 0; b < s.bits; b++ {
		var pop uint64
		for _, w := range s.Plane(b) {
			pop += uint64(bits.OnesCount64(w))
		}
		if pop != 0 && bits.Len64(pop)+b > 64 {
			return false, fmt.Errorf("core: sum referee plane overflow at bit %d", b)
		}
		next := sum + pop<<b
		if next < sum {
			return false, fmt.Errorf("core: sum referee value overflow at bit %d", b)
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
