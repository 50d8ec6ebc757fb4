package core

import (
	"fmt"
	"math/rand/v2"
)

// Message is a player's report to the referee: up to 64 bits, of which a
// LocalRule uses the low Bits(). For single-bit rules, bit 0 follows the
// paper's convention: 1 = accept, 0 = reject.
type Message uint64

// Accept and Reject are the two single-bit messages.
const (
	Reject Message = 0
	Accept Message = 1
)

// Bit reports the single-bit reading of the message.
func (m Message) Bit() bool { return m&1 == 1 }

// LocalRule is a player's strategy: the (possibly randomized) map from its
// sample batch to a message — the Boolean function G of the paper's
// Section 4, generalized to multi-bit outputs.
//
// player is the player's index in [0, k); protocols whose strategies differ
// per player (e.g. the learning protocol) dispatch on it. shared is the
// public-coin seed for the current run: every player of the run receives
// the same value and may derive identical randomness from it. private is
// the player's own generator.
type LocalRule interface {
	// Message computes the player's report.
	Message(player int, samples []int, shared uint64, private *rand.Rand) (Message, error)
	// Bits returns the number of message bits the rule uses (1..64).
	Bits() int
}

// Instancer is an optional LocalRule extension for a rule that keeps
// scratch per call. One rule value may serve many concurrent callers —
// the engine workers of an SMP backend — so such a rule borrows its
// scratch from a pool on every call. A caller that keeps the rule for
// many calls, one at a time, can take an instance instead: a copy that
// owns its scratch, derives the same messages bit for bit and is not
// safe for concurrent use. A cluster node takes one when it is built,
// and a CONGEST engine worker with its scratch, for the players it
// votes one after another. See Instance.
type Instancer interface {
	// Instance returns a copy of the rule for one caller.
	Instance() LocalRule
}

// Instance returns rule's own copy for one caller when the rule is an
// Instancer, and rule itself otherwise.
func Instance(rule LocalRule) LocalRule {
	if in, ok := rule.(Instancer); ok {
		return in.Instance()
	}
	return rule
}

// Referee decides from the k messages; implementations define the decision
// function f of the model.
type Referee interface {
	// Decide returns true to accept.
	Decide(msgs []Message) (bool, error)
}

// StatRule is a LocalRule sending a single bit: accept iff a real-valued
// statistic of the samples is at most a threshold. It is the shape every
// collision-style local decision in the paper's cited testers takes.
type StatRule struct {
	// Stat maps a sample batch to the test statistic.
	Stat func(samples []int) (float64, error)
	// Threshold is the local acceptance cutoff.
	Threshold float64
}

var _ LocalRule = (*StatRule)(nil)

// Message accepts iff the statistic is at most the threshold.
func (r *StatRule) Message(_ int, samples []int, _ uint64, _ *rand.Rand) (Message, error) {
	if r.Stat == nil {
		return Reject, fmt.Errorf("core: StatRule with nil statistic")
	}
	v, err := r.Stat(samples)
	if err != nil {
		return Reject, err
	}
	if v <= r.Threshold {
		return Accept, nil
	}
	return Reject, nil
}

// Bits returns 1.
func (r *StatRule) Bits() int { return 1 }

// RuleFunc adapts a plain function to a single-bit LocalRule.
type RuleFunc func(player int, samples []int, shared uint64, private *rand.Rand) (Message, error)

// Message invokes the function.
func (f RuleFunc) Message(player int, samples []int, shared uint64, private *rand.Rand) (Message, error) {
	return f(player, samples, shared, private)
}

// Bits returns 1.
func (f RuleFunc) Bits() int { return 1 }
