package experiments

import (
	"math"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/lowerbound"
)

// Shared workload for the tester experiments: n = 2^12, the paper's eps-far
// hard family as the alternative.
const (
	testerEll = 11
	testerN   = 1 << (testerEll + 1)
	testerEps = 0.5
)

func testerHard() (dist.HardInstance, error) {
	return dist.NewHardInstance(testerEll, testerEps)
}

// e1 measures the per-player sample complexity of the sample-optimal
// threshold tester as k grows — the regime of Theorem 1.1/6.1: measured q*
// should track sqrt(n/k)/eps^2, and q* * sqrt(k) should stay flat.
func e1() Experiment {
	return Experiment{
		ID:         "E1",
		Title:      "Arbitrary-rule tester: minimal q vs k",
		Reproduces: "Theorem 1.1 / 6.1 (tightness of the FMO threshold tester)",
		Run: func(cfg Config) (*Table, error) {
			h, err := testerHard()
			if err != nil {
				return nil, err
			}
			table := NewTable(
				"E1: minimal per-player samples q* for the threshold tester (n=4096, eps=0.5)",
				"k", "measured q*", "q* x sqrt(k)", "lower bound (Thm 6.1, C=1)", "upper formula c*sqrt(n/k)/eps^2",
			)
			trials := cfg.trials(120)
			opts := engine.Options{Seed: cfg.Seed + 1, Workers: cfg.Parallelism}
			for _, k := range []int{1, 4, 16, 64, 256} {
				k := k
				build := func(q int) (core.Protocol, error) {
					return core.NewThresholdTester(core.ThresholdTesterConfig{
						N: testerN, K: k, Q: q, Eps: testerEps,
					})
				}
				qStar, err := MinimalQ(build, testerN, h, 2, 1<<17, trials, opts)
				if err != nil {
					return nil, err
				}
				lb, err := lowerbound.Theorem61Q(testerN, k, testerEps, 1)
				if err != nil {
					return nil, err
				}
				table.MustAddRow(
					FmtInt(k),
					FmtInt(qStar),
					FmtF(float64(qStar)*math.Sqrt(float64(k))),
					FmtF(lb),
					FmtInt(core.RecommendedThresholdSamples(testerN, k, testerEps)),
				)
			}
			table.Notes = "Shape check: q* x sqrt(k) flattens once k >= 16 => q* ~ sqrt(n/k)/eps^2, matching Theorem 1.1's " +
				"lower bound. (At k <= 4 the referee threshold T = k/2 is a small constant, so that regime behaves like E3's " +
				"small-T rows instead.)"
			return table, nil
		},
	}
}

// e2 measures the AND-rule tester's minimal q over the same k sweep —
// Theorem 1.2/6.5's phenomenon: the fully local rule barely improves with
// k, staying near the centralized sqrt(n)/eps^2.
func e2() Experiment {
	return Experiment{
		ID:         "E2",
		Title:      "AND-rule tester: minimal q vs k",
		Reproduces: "Theorem 1.2 / 6.5 (locality is expensive)",
		Run: func(cfg Config) (*Table, error) {
			h, err := testerHard()
			if err != nil {
				return nil, err
			}
			table := NewTable(
				"E2: minimal per-player samples q* for the AND-rule tester (n=4096, eps=0.5)",
				"k", "measured q* (AND)", "q*(AND)/q*(k=1)", "lower bound (Thm 6.5, C=1/4)", "threshold-rule formula c*sqrt(n/k)/eps^2",
			)
			trials := cfg.trials(120)
			opts := engine.Options{Seed: cfg.Seed + 2, Workers: cfg.Parallelism}
			var qCentral int
			for _, k := range []int{1, 4, 16, 64, 256} {
				k := k
				build := func(q int) (core.Protocol, error) {
					return core.NewANDTester(testerN, k, q, testerEps)
				}
				qStar, err := MinimalQ(build, testerN, h, 2, 1<<17, trials, opts)
				if err != nil {
					return nil, err
				}
				if k == 1 {
					qCentral = qStar
				}
				var lbCell string
				if k >= 2 {
					lb, err := lowerbound.Theorem65Q(testerN, k, testerEps, 0.25)
					if err != nil {
						return nil, err
					}
					lbCell = FmtF(lb)
				} else {
					lbCell = "-"
				}
				table.MustAddRow(
					FmtInt(k),
					FmtInt(qStar),
					FmtRatio(float64(qStar)/float64(qCentral)),
					lbCell,
					FmtInt(core.RecommendedThresholdSamples(testerN, k, testerEps)),
				)
			}
			table.Notes = "Shape check: q*(AND) stays near the centralized cost for every k in range — the gain is at most polylogarithmic, exactly Theorem 1.2's phenomenon — while the threshold-rule cost (last column; measured in E1) drops like 1/sqrt(k)."
			return table, nil
		},
	}
}

// e3 measures the cost of small referee thresholds T — Theorem 1.3: q*
// should scale like sqrt(n)/(T eps^2) until T reaches ~1/eps^2-scale
// territory.
func e3() Experiment {
	return Experiment{
		ID:         "E3",
		Title:      "T-threshold rule: minimal q vs T",
		Reproduces: "Theorem 1.3 (small thresholds are expensive)",
		Run: func(cfg Config) (*Table, error) {
			h, err := testerHard()
			if err != nil {
				return nil, err
			}
			const k = 64
			table := NewTable(
				"E3: minimal per-player samples q* vs referee threshold T (n=4096, k=64, eps=0.5)",
				"T", "measured q*", "measured gain q*(1)/q*(T)", "max gain allowed by Thm 1.3 (T)", "lower bound (Thm 1.3, C=1/4)",
			)
			trials := cfg.trials(120)
			opts := engine.Options{Seed: cfg.Seed + 3, Workers: cfg.Parallelism}
			var qAtOne int
			for _, t := range []int{1, 2, 4, 8, 16, 32} {
				t := t
				build := func(q int) (core.Protocol, error) {
					return core.NewThresholdTester(core.ThresholdTesterConfig{
						N: testerN, K: k, Q: q, Eps: testerEps, T: t,
					})
				}
				qStar, err := MinimalQ(build, testerN, h, 2, 1<<17, trials, opts)
				if err != nil {
					return nil, err
				}
				if t == 1 {
					qAtOne = qStar
				}
				lb, err := lowerbound.Theorem13Q(testerN, k, t, testerEps, 0.25)
				if err != nil {
					return nil, err
				}
				table.MustAddRow(
					FmtInt(t),
					FmtInt(qStar),
					FmtRatio(float64(qAtOne)/float64(qStar)),
					FmtInt(t),
					FmtF(lb),
				)
			}
			table.Notes = "Shape check: raising T cheapens the tester, but the measured gain saturates near T ~ 1/eps^4 " +
				"(the FMO threshold) and stays far below the factor-T ceiling the Theorem 1.3 lower bound would permit — " +
				"consistent with the paper's remark that a quadratic gap (T = Theta(1/eps^4) vs 1/eps^2) remains open."
			return table, nil
		},
	}
}

// e11 measures the single-sample l-bit hashing tester's minimal player
// count vs the message length — Theorem 6.4's 2^{-Theta(l)} decay, with
// the [ACT18] upper-bound shape n/(2^{l/2} eps^2).
func e11() Experiment {
	return Experiment{
		ID:         "E11",
		Title:      "Single-sample l-bit tester: minimal k vs l",
		Reproduces: "Theorem 6.4 + [ACT18] upper bound",
		Run: func(cfg Config) (*Table, error) {
			const (
				ell = 9
				n   = 1 << (ell + 1) // 1024
				eps = 0.5
			)
			h, err := dist.NewHardInstance(ell, eps)
			if err != nil {
				return nil, err
			}
			table := NewTable(
				"E11: minimal players k* for the single-sample hashing tester (n=1024, eps=0.5)",
				"message bits l", "measured k*", "k* x 2^{l/2}", "upper formula 8n/(2^{l/2} eps^2)", "lower bound (Thm 6.4, C=1)",
			)
			trials := cfg.trials(100)
			opts := engine.Options{Seed: cfg.Seed + 11, Workers: cfg.Parallelism}
			for _, l := range []int{4, 6, 8, 10} {
				l := l
				build := func(k int) (core.Protocol, error) {
					return core.NewACTTester(n, k, l, eps)
				}
				kStar, err := MinimalK(build, n, h, 2, 1<<21, trials, opts)
				if err != nil {
					return nil, err
				}
				// Thm 6.4 lower-bounds q given k; invert on the q=1 line by
				// finding the k at which the bound crosses 1.
				lbK := theorem64KAtQ1(n, l, eps)
				table.MustAddRow(
					FmtInt(l),
					FmtInt(kStar),
					FmtF(float64(kStar)*math.Pow(2, float64(l)/2)),
					FmtInt(core.RecommendedACTPlayers(n, l, eps)),
					FmtF(lbK),
				)
			}
			table.Notes = "Shape check: k* x 2^{l/2} stays roughly flat — longer messages buy players at the " +
				"2^{-l/2} rate of [ACT18], consistent with Theorem 6.4's decay. Coarser partitions (l <= 2) are " +
				"excluded: with B = 2^l buckets the random partition preserves the eps-far distance only up to " +
				"Theta(sqrt(1/B)) relative variance, and at B = 4 the far-rejection probability plateaus below the " +
				"2/3 target for every k — a measured finding consistent with [ACT18] needing l >= 1 plus " +
				"concentration, documented in EXPERIMENTS.md."
			return table, nil
		},
	}
}

// theorem64KAtQ1 returns the k at which the Theorem 6.4 bound permits
// q = 1: below it, one sample per player cannot suffice.
func theorem64KAtQ1(n, r int, eps float64) float64 {
	// q >= (1/eps^2) min(sqrt(n/(2^r k)), n/(2^r k)) = 1 with the n/k
	// branch active in the single-sample regime: k = n/(2^r eps^2).
	return float64(n) / (math.Pow(2, float64(r)) * eps * eps)
}

// e12 measures the asymmetric-cost model of Section 6.2: heterogeneous
// sampling rates T_i, common deadline tau. The invariant is tau* ~
// sqrt(n)/(eps^2 ||T||_2), so tau* x ||T||_2 should be flat across
// profiles.
func e12() Experiment {
	return Experiment{
		ID:         "E12",
		Title:      "Asymmetric rates: minimal deadline tau vs rate profile",
		Reproduces: "Section 6.2 (matching the FMO asymmetric upper bound)",
		Run: func(cfg Config) (*Table, error) {
			h, err := testerHard()
			if err != nil {
				return nil, err
			}
			profiles := []struct {
				name  string
				rates []float64
				t     int
			}{
				{name: "uniform x16", rates: repeatRate(1, 16), t: 0},
				{name: "two-tier 4x4 + 12x1", rates: append(repeatRate(4, 4), repeatRate(1, 12)...), t: 4},
				{name: "one fast 1x8 + 15x1", rates: append(repeatRate(8, 1), repeatRate(1, 15)...), t: 1},
			}
			table := NewTable(
				"E12: minimal deadline tau* under heterogeneous sampling rates (n=4096, eps=0.5)",
				"profile", "||T||_2", "measured tau*", "tau* x ||T||_2 x eps^2/sqrt(n)", "lower bound tau (C=1)",
			)
			trials := cfg.trials(120)
			opts := engine.Options{Seed: cfg.Seed + 12, Workers: cfg.Parallelism}
			for _, prof := range profiles {
				prof := prof
				build := func(tau int) (core.Protocol, error) {
					qs := make([]int, len(prof.rates))
					for i, r := range prof.rates {
						qs[i] = int(math.Ceil(r * float64(tau)))
					}
					return core.NewAsymmetricThresholdTester(testerN, qs, testerEps, prof.t)
				}
				tauStar, err := MinimalQ(build, testerN, h, 2, 1<<17, trials, opts)
				if err != nil {
					return nil, err
				}
				var norm2 float64
				for _, r := range prof.rates {
					norm2 += r * r
				}
				norm := math.Sqrt(norm2)
				lb, err := lowerbound.AsymmetricTau(testerN, prof.rates, testerEps, 1)
				if err != nil {
					return nil, err
				}
				table.MustAddRow(
					prof.name,
					FmtF(norm),
					FmtInt(tauStar),
					FmtRatio(float64(tauStar)*norm*testerEps*testerEps/math.Sqrt(float64(testerN))),
					FmtF(lb),
				)
			}
			table.Notes = "Shape check: the normalized column is flat — only ||T||_2 matters, matching the Section 6.2 bound tau = Theta(sqrt(n)/(eps^2 ||T||_2))."
			return table, nil
		},
	}
}

func repeatRate(rate float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = rate
	}
	return out
}

// e13 demonstrates the Section 6.3 remark: with starved players (one
// collision-free sample batch each), the AND rule cannot test uniformity
// no matter how many players join — the acceptance gap stays ~0.
func e13() Experiment {
	return Experiment{
		ID:         "E13",
		Title:      "AND rule with starved players: blind for every k",
		Reproduces: "Section 6.3 remark (q=1 AND-rule impossibility)",
		Run: func(cfg Config) (*Table, error) {
			const (
				ell = 9
				n   = 1 << (ell + 1)
				eps = 0.75
				q   = 2 // minimal legal batch; collision mass 1/n ~ 0
			)
			h, err := dist.NewHardInstance(ell, eps)
			if err != nil {
				return nil, err
			}
			table := NewTable(
				"E13: starved AND tester acceptance gap (n=1024, eps=0.75, q=2)",
				"k", "accept(uniform)", "accept(hard family)", "gap",
			)
			trials := cfg.trials(400)
			for _, k := range []int{16, 256, 4096} {
				p, err := core.NewANDTester(n, k, q, eps)
				if err != nil {
					return nil, err
				}
				opts := engine.Options{Seed: cfg.Seed + uint64(13*k), Workers: cfg.Parallelism}
				ru, err := acceptUniform(p, n, trials, opts)
				if err != nil {
					return nil, err
				}
				farOpts := opts
				farOpts.Seed ^= 0xabcdef
				rf, err := acceptHardFamily(p, h, trials, farOpts)
				if err != nil {
					return nil, err
				}
				pu, pf := ru.Estimate.P, rf.Estimate.P
				table.MustAddRow(FmtInt(k), FmtProb(pu), FmtProb(pf), FmtProb(pu-pf))
			}
			table.Notes = "Shape check: the acceptance gap stays far below the 1/3 separation the model requires, for " +
				"every k. (The paper's exact impossibility statement is for q = 1, where a player's view carries no " +
				"collision information at all; q = 2 — the smallest batch our collision rule accepts — leaks a " +
				"Theta(eps^2/n) per-player signal, visible as the small but non-growing gap at large k.)"
			return table, nil
		},
	}
}
