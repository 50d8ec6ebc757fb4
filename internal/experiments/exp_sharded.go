package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/lowerbound"
	"github.com/distributed-uniformity/dut/internal/network"
)

// e22 is the scale workload of the sharded referee tree: the quantized
// collision tester run as a real networked deployment — player nodes,
// L1 aggregators, root referee over in-memory pipes — with the player
// count swept across Theorem 1.4's learning floor k = Omega(n^2/q^2).
// The point is the testing/learning separation at scale: with q = 4
// samples per player (far below the sqrt(n) a lone tester needs), the
// distributed tester's U-far gap opens as k grows, long before and then
// far past the k = n^2/q^2 players a distribution LEARNER would need at
// this q. Every row runs twice, once on the flat star and once on the
// aggregation tree, and the sweep aborts if any verdict differs — the
// tree is a wire-level optimization with a bit-identical contract.
func e22() Experiment {
	return Experiment{
		ID:         "E22",
		Title:      "Sharded referee tree at scale: k swept across the Thm 1.4 learning floor",
		Reproduces: "Theorem 1.4's k = Omega(n^2/q^2) learning floor, contrasted with distributed testing on the aggregation tree",
		Run: func(cfg Config) (*Table, error) {
			const (
				n    = 64
				ell  = 5 // n = 2^(ell+1)
				q    = 4
				bits = 3 // C(q,2) = 6 < 2^3 - 1: the quantized sum is exact
				s    = 4 // L1 aggregators
				eps  = 0.5
			)
			ks := []int{32, 64, 128, 256, 512, 1024}
			h, err := dist.NewHardInstance(ell, eps)
			if err != nil {
				return nil, err
			}
			u, err := dist.Uniform(n)
			if err != nil {
				return nil, err
			}
			uniform, err := engine.FromDist(u)
			if err != nil {
				return nil, err
			}
			far := func(_ int, rng *rand.Rand) (dist.Sampler, error) {
				nu, _, err := h.RandomPerturbed(rng)
				if err != nil {
					return nil, err
				}
				return dist.NewAliasSampler(nu)
			}
			trials := cfg.trials(60)
			// Each worker owns a full k-node session; cap the fleet so the
			// k = 1024 rows do not multiply into tens of thousands of
			// goroutines.
			workers := cfg.Parallelism
			if workers == 0 || workers > 4 {
				workers = 4
			}
			verdicts := func(b engine.Backend, src engine.Source, seed uint64) ([]bool, float64, error) {
				results, err := engine.Run(context.Background(), b, src, trials, engine.Options{
					Seed: seed, Workers: workers, Batch: 64, Window: 2,
				})
				if err != nil {
					return nil, 0, err
				}
				out := make([]bool, len(results))
				accepts := 0
				for i, r := range results {
					out[i] = r.Verdict
					if r.Verdict {
						accepts++
					}
				}
				return out, float64(accepts) / float64(len(results)), nil
			}
			floor, err := lowerbound.Theorem14K(n, q, 1)
			if err != nil {
				return nil, err
			}
			table := NewTable(
				fmt.Sprintf("E22: quantized tester on the sharded referee tree (n=%d, q=%d, r=%d, %d aggregators, %d trials per cell; Thm 1.4 learning floor k = n^2/q^2 = %s)",
					n, q, bits, s, trials, FmtF(floor)),
				"k", "T", "accept(U)", "accept(far)", "U-far gap", "k / learner floor",
			)
			// cell runs configuration k on the flat star and on the tree.
			// Both backends keep their sessions between calls and are
			// closed before the next configuration.
			cell := func(k int) (pu, pf float64, err error) {
				rule, err := core.NewQuantizedCollisionRule(n, q, bits)
				if err != nil {
					return 0, 0, err
				}
				// The flat star and the tree are the same cluster config;
				// only the topology differs.
				clusterCfg := network.ClusterConfig{
					K: k, Q: q,
					Rule:    rule,
					Referee: core.SumThresholdReferee{Bits: bits, T: core.QuantizedSumThreshold(n, k, q)},
					Timeout: 30 * time.Second,
				}
				flatCluster, err := network.NewCluster(clusterCfg)
				if err != nil {
					return 0, 0, err
				}
				clusterCfg.Shards = s
				treeCluster, err := network.NewCluster(clusterCfg)
				if err != nil {
					return 0, 0, err
				}
				flat, err := network.NewBackend(flatCluster)
				if err != nil {
					return 0, 0, err
				}
				defer closeBackend(flat, &err)
				tree, err := network.NewBackend(treeCluster)
				if err != nil {
					return 0, 0, err
				}
				defer closeBackend(tree, &err)
				seedU := cfg.Seed + 220
				seedF := seedU ^ 0x5851f42d4c957f2d
				for _, src := range []struct {
					source engine.Source
					seed   uint64
					p      *float64
				}{{uniform, seedU, &pu}, {far, seedF, &pf}} {
					flatV, p, err := verdicts(flat, src.source, src.seed)
					if err != nil {
						return 0, 0, err
					}
					treeV, _, err := verdicts(tree, src.source, src.seed)
					if err != nil {
						return 0, 0, err
					}
					for i := range flatV {
						if flatV[i] != treeV[i] {
							return 0, 0, fmt.Errorf("experiments: E22 tree verdict diverged from flat at k=%d trial %d; the sharded referee broke its bit-identical contract", k, i)
						}
					}
					*src.p = p
				}
				return pu, pf, nil
			}
			for _, k := range ks {
				pu, pf, err := cell(k)
				if err != nil {
					return nil, err
				}
				table.MustAddRow(
					FmtInt(k), FmtInt(core.QuantizedSumThreshold(n, k, q)),
					FmtProb(pu), FmtProb(pf), FmtProb(pu-pf),
					FmtF(float64(k)/floor),
				)
			}
			table.Notes = "Paper check: Theorem 1.4 prices LEARNING the input to constant accuracy at k = Omega(n^2/q^2) " +
				"players of q queries each — at q = " + FmtInt(q) + " and n = " + FmtInt(n) + " that floor is " +
				FmtF(floor) + " players. Uniformity TESTING is cheaper: the quantized collision tester's U-far gap " +
				"opens as k grows and is decisive around the floor itself, even though each player holds " +
				"far fewer than the sqrt(n) samples a centralized tester needs, and each message is just r = " +
				FmtInt(bits) + " bits. Every cell ran as a real networked deployment on the two-tier referee tree (" +
				FmtInt(s) + " L1 aggregators reducing VOTE batches to AGG_SUM counter planes) and again on the flat " +
				"star, with bit-identical verdicts trial by trial — the sweep aborts on the first divergence."
			return table, nil
		},
	}
}

// closeBackend closes a backend that holds sessions between calls
// (io.Closer), folding its error into *err when none is set yet.
func closeBackend(b engine.Backend, err *error) {
	c, ok := b.(io.Closer)
	if !ok {
		return
	}
	if closeErr := c.Close(); *err == nil {
		*err = closeErr
	}
}
