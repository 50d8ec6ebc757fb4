package core

import (
	"fmt"
)

// DecisionRule is a Boolean decision function f: {0,1}^k -> {0,1} applied
// by the referee to single-bit messages. Implementations must be pure
// functions of the bit vector.
type DecisionRule interface {
	// Decide returns the referee's output; bits[i] is player i's bit with
	// true = accept.
	Decide(bits []bool) (bool, error)
	// Name identifies the rule in experiment tables.
	Name() string
}

// Verify interface compliance.
var (
	_ DecisionRule = ANDRule{}
	_ DecisionRule = ORRule{}
	_ DecisionRule = ThresholdRule{}
	_ DecisionRule = MajorityRule{}
	_ DecisionRule = FuncRule{}
)

// ANDRule accepts iff every player accepts — the fully local decision rule
// of Theorem 1.2: any single rejecting player vetoes.
type ANDRule struct{}

// Decide implements DecisionRule.
func (ANDRule) Decide(bits []bool) (bool, error) {
	if len(bits) == 0 {
		return false, fmt.Errorf("core: AND of zero bits")
	}
	for _, b := range bits {
		if !b {
			return false, nil
		}
	}
	return true, nil
}

// Name implements DecisionRule.
func (ANDRule) Name() string { return "and" }

// ORRule accepts iff at least one player accepts.
type ORRule struct{}

// Decide implements DecisionRule.
func (ORRule) Decide(bits []bool) (bool, error) {
	if len(bits) == 0 {
		return false, fmt.Errorf("core: OR of zero bits")
	}
	for _, b := range bits {
		if b {
			return true, nil
		}
	}
	return false, nil
}

// Name implements DecisionRule.
func (ORRule) Name() string { return "or" }

// ThresholdRule rejects iff at least T players reject — the T-threshold
// rule of Theorem 1.3 (in the paper's indexing, f(x) = 1 exactly when
// sum x_i >= k - T + 1 for rejection threshold T). T = 1 recovers ANDRule.
type ThresholdRule struct {
	// T is the number of rejecting players that triggers rejection; must
	// be at least 1.
	T int
}

// Decide implements DecisionRule.
func (r ThresholdRule) Decide(bits []bool) (bool, error) {
	if len(bits) == 0 {
		return false, fmt.Errorf("core: threshold rule over zero bits")
	}
	if r.T < 1 {
		return false, fmt.Errorf("core: threshold rule with T=%d", r.T)
	}
	rejections := 0
	for _, b := range bits {
		if !b {
			rejections++
		}
	}
	return rejections < r.T, nil
}

// Name implements DecisionRule.
func (r ThresholdRule) Name() string { return fmt.Sprintf("threshold(T=%d)", r.T) }

// MajorityRule rejects iff a strict majority of players reject.
type MajorityRule struct{}

// Decide implements DecisionRule.
func (MajorityRule) Decide(bits []bool) (bool, error) {
	if len(bits) == 0 {
		return false, fmt.Errorf("core: majority of zero bits")
	}
	return ThresholdRule{T: len(bits)/2 + 1}.Decide(bits)
}

// Name implements DecisionRule.
func (MajorityRule) Name() string { return "majority" }

// FuncRule wraps an arbitrary decision function — the "any decision rule"
// regime of Theorem 1.1.
type FuncRule struct {
	F     func(bits []bool) bool
	Label string
}

// Decide implements DecisionRule.
func (r FuncRule) Decide(bits []bool) (bool, error) {
	if r.F == nil {
		return false, fmt.Errorf("core: FuncRule with nil function")
	}
	if len(bits) == 0 {
		return false, fmt.Errorf("core: decision over zero bits")
	}
	return r.F(bits), nil
}

// Name implements DecisionRule.
func (r FuncRule) Name() string {
	if r.Label == "" {
		return "func"
	}
	return r.Label
}

// BitReferee lifts a DecisionRule to the Referee interface, reading bit 0
// of every message. A stock rule — AND, OR, majority or a T-threshold —
// is decided by counting the rejecting messages, with no allocation; any
// other rule is handed the messages' bits as a fresh []bool.
type BitReferee struct {
	Rule DecisionRule
}

var _ Referee = BitReferee{}

// Decide implements Referee.
func (r BitReferee) Decide(msgs []Message) (bool, error) {
	if r.Rule == nil {
		return false, fmt.Errorf("core: BitReferee with nil rule")
	}
	if t, ok := rejectionThreshold(r.Rule, len(msgs)); ok {
		rejections := 0
		for _, m := range msgs {
			rejections += int(^m & 1)
		}
		return rejections < t, nil
	}
	bits := make([]bool, len(msgs))
	for i, m := range msgs {
		bits[i] = m.Bit()
	}
	return r.Rule.Decide(bits)
}

// ThresholdShape classifies a referee as a T-rejection-threshold rule
// over k single-bit votes: when ok, the referee's Decide over any full
// k-vote slate equals "reject iff at least T players reject". All four
// named rules reduce to this shape (AND is T=1, OR is T=k, Majority is
// T=k/2+1), which is what lets the networked referee evaluate a whole
// batch of verdicts word-parallel over packed vote bitsets instead of
// expanding every trial to a []bool. FuncRule and non-BitReferee
// referees are opaque and return ok=false.
func ThresholdShape(r Referee, k int) (t int, ok bool) {
	br, isBits := r.(BitReferee)
	if !isBits {
		return 0, false
	}
	return rejectionThreshold(br.Rule, k)
}

// rejectionThreshold returns the T at which a stock rule over k votes
// rejects: the rule's Decide over k bits equals "reject iff at least T
// bits are false". It reports ok = false for any other rule, and where
// the rule's own Decide errors (k < 1, or a threshold below 1), so the
// caller reaches that error through Decide.
func rejectionThreshold(rule DecisionRule, k int) (t int, ok bool) {
	if k < 1 {
		return 0, false
	}
	switch rule := rule.(type) {
	case ANDRule:
		return 1, true
	case ORRule:
		return k, true
	case MajorityRule:
		return k/2 + 1, true
	case ThresholdRule:
		if rule.T < 1 {
			return 0, false
		}
		return rule.T, true
	default:
		return 0, false
	}
}
