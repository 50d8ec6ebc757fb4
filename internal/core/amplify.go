package core

import (
	"fmt"
	"math"
)

// RoundsForFailure returns the odd round count sufficient for a
// 2/3-correct protocol to reach failure probability delta under majority
// voting, via the Chernoff bound exp(-rounds/18) on a mean-2/3 Binomial
// dipping below 1/2. It sizes engine.Amplify, which runs that many
// rounds and returns their majority: the standard amplification the
// paper's inequality (10) prices in its log(1/delta) term.
func RoundsForFailure(delta float64) (int, error) {
	if delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("core: target failure probability %v outside (0,1)", delta)
	}
	rounds := int(math.Ceil(18 * math.Log(1/delta)))
	if rounds%2 == 0 {
		rounds++
	}
	if rounds < 1 {
		rounds = 1
	}
	return rounds, nil
}
