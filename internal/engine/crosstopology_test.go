package engine_test

// Cross-topology determinism: the sharded referee tree is a wire-level
// optimization, never a semantic one. For the same engine seed, the
// cluster backend must produce bit-identical verdicts whether the
// players dial the root directly (flat star) or dial L1 aggregators
// that reduce their shard's votes (tree). This is the engine-facing
// twin of the matrix in internal/network: it runs through the public
// backend API exactly as an experiment would.

import (
	"fmt"
	"testing"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/network"
)

const xtopPlayers = 12

// xtopCluster builds the test cluster on the given topology: shards
// L1 aggregators (0 is the flat star), players dealt in a shuffled
// order when shardSeed is non-zero.
func xtopCluster(t *testing.T, rule core.LocalRule, referee core.Referee, shards int, shardSeed uint64) *network.Cluster {
	t.Helper()
	c, err := network.NewCluster(network.ClusterConfig{
		K: xtopPlayers, Q: xbSamples,
		Rule:      rule,
		Referee:   referee,
		Transport: network.NewMemTransport(),
		Timeout:   10 * time.Second,
		Shards:    shards,
		ShardSeed: shardSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func xtopVerdicts(t *testing.T, c *network.Cluster, batch, window int) []bool {
	t.Helper()
	b, err := network.NewBackend(c)
	if err != nil {
		t.Fatal(err)
	}
	return rbitVerdicts(t, b, batch, window)
}

func TestCrossTopologyBackendsAgree(t *testing.T) {
	for _, r := range rbitWidths {
		t.Run(fmt.Sprintf("r=%d", r), func(t *testing.T) {
			t.Parallel()
			rule := rbitTestRule{bits: r}
			// Center the threshold on the expected sum of 12 uniform
			// r-bit values so verdicts flip trial to trial.
			referee := core.SumThresholdReferee{Bits: r, T: xtopPlayers * ((1 << r) - 1) / 2}
			want := xtopVerdicts(t, xtopCluster(t, rule, referee, 0, 0), 0, 0)
			for _, s := range []int{2, 3, 6} {
				got := xtopVerdicts(t, xtopCluster(t, rule, referee, s, 0), 4, 2)
				assertSameVerdicts(t, fmt.Sprintf("shards=%d", s), want, got)
			}
		})
	}
}

func TestCrossTopologyQuantizedRuleAgrees(t *testing.T) {
	// The Theorem 6.4 quantized collision rule on the tree: the
	// production r-bit path must survive aggregation too.
	threshold := core.QuantizedSumThreshold(xbDomain, xtopPlayers, xbSamples)
	rule, err := core.NewQuantizedCollisionRule(xbDomain, xbSamples, 3)
	if err != nil {
		t.Fatal(err)
	}
	referee := core.SumThresholdReferee{Bits: 3, T: threshold}
	want := xtopVerdicts(t, xtopCluster(t, rule, referee, 0, 0), 0, 0)
	assertSameVerdicts(t, "sharded", want, xtopVerdicts(t, xtopCluster(t, rule, referee, 4, 0), 3, 2))
	assertSameVerdicts(t, "sharded-shuffled", want,
		xtopVerdicts(t, xtopCluster(t, rule, referee, 4, 0xfeed), 3, 2))
}
