package experiments

import (
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/boolfn"
	"github.com/distributed-uniformity/dut/internal/lowerbound"
	"github.com/distributed-uniformity/dut/internal/stats"
)

// e14 verifies the Section 6 information pipeline: Fact 6.3 (the
// chi-squared bound dominates Bernoulli KL), and the per-player divergence
// of concrete strategies against the inequality (12) budget, plus the
// referee requirement of inequality (10).
func e14() Experiment {
	return Experiment{
		ID:         "E14",
		Title:      "Divergence pipeline: Fact 6.3 and inequalities (10)/(12)",
		Reproduces: "Fact 6.3, inequalities (10)-(13) of Section 6.1",
		Run: func(cfg Config) (*Table, error) {
			fact := NewTable(
				"E14a: Bernoulli KL vs the Fact 6.3 chi-squared bound",
				"alpha", "beta", "KL (bits)", "Fact 6.3 bound", "ratio",
			)
			worst := 0.0
			for _, alpha := range []float64{0.01, 0.2, 0.5, 0.8, 0.99} {
				for _, beta := range []float64{0.05, 0.3, 0.5, 0.7, 0.95} {
					kl, err := stats.BernoulliKL(alpha, beta)
					if err != nil {
						return nil, err
					}
					bound, err := stats.BernoulliKLChiBound(alpha, beta)
					if err != nil {
						return nil, err
					}
					r := ratioOrZero(kl, bound)
					if r > worst {
						worst = r
					}
					fact.MustAddRow(FmtF(alpha), FmtF(beta), FmtSci(kl), FmtSci(bound), FmtRatio(r))
				}
			}

			budget := NewTable(
				"E14b: per-player divergence of concrete strategies vs the inequality (12) budget (exact over all z)",
				"ell", "q", "eps", "strategy", "E_z KL (bits)", "budget (ineq. 12)", "ratio",
			)
			rng := rand.New(rand.NewPCG(cfg.Seed+14, 1))
			for _, ic := range lemmaInstances() {
				in, err := lowerbound.NewInstance(ic.ell, ic.q, ic.eps)
				if err != nil {
					return nil, err
				}
				if !lowerbound.Lemma42Precondition(in.N(), in.Q, in.Eps) {
					continue
				}
				for _, st := range []struct {
					name string
					mk   func() (boolfn.Func, error)
				}{
					{"random p=0.5", func() (boolfn.Func, error) { return lowerbound.RandomStrategy(in, 0.5, rng) }},
					{"sign detector", func() (boolfn.Func, error) { return lowerbound.SignAgreementDetector(in) }},
				} {
					g, err := st.mk()
					if err != nil {
						return nil, err
					}
					e, err := lowerbound.NewDiffEvaluator(in, g)
					if err != nil {
						return nil, err
					}
					if e.Var() == 0 {
						continue
					}
					div, err := lowerbound.ExpectedPlayerDivergence(e)
					if err != nil {
						return nil, err
					}
					bound, err := lowerbound.DivergenceUpperBound(in.N(), in.Q, in.Eps)
					if err != nil {
						return nil, err
					}
					budget.MustAddRow(
						FmtInt(ic.ell), FmtInt(ic.q), FmtF(ic.eps), st.name,
						FmtSci(div), FmtSci(bound), FmtRatio(ratioOrZero(div, bound)),
					)
				}
			}

			requirement := NewTable(
				"E14c: inequality (10) referee requirement and the implied q* (n=2^16, delta=1/3)",
				"k", "required bits/player", "inverted q* (ineq. 13)", "Theorem 6.1 formula (C=1)",
			)
			const n = 1 << 16
			for _, k := range []int{16, 256, 4096} {
				need, err := lowerbound.RefereeRequirement(k, 1.0/3)
				if err != nil {
					return nil, err
				}
				qStar, err := lowerbound.MinimalQFromDivergence(n, k, 0.25, 1.0/3)
				if err != nil {
					return nil, err
				}
				ref, err := lowerbound.Theorem61Q(n, k, 0.25, 1)
				if err != nil {
					return nil, err
				}
				requirement.MustAddRow(FmtInt(k), FmtSci(need), FmtF(qStar), FmtF(ref))
			}

			combined := NewTable(fact.Title, fact.Columns...)
			combined.Rows = fact.Rows
			combined.Notes = "Paper check: every Fact 6.3 ratio <= 1 (worst " + FmtRatio(worst) + ").\n\n" +
				budget.Markdown() + "\n" + requirement.Markdown()
			return combined, nil
		},
	}
}

// e15 verifies the Lemma 5.4 (KKL) level inequality on random biased
// functions and on structured ones, reporting the worst ratio.
func e15() Experiment {
	return Experiment{
		ID:         "E15",
		Title:      "KKL level inequality (Lemma 5.4)",
		Reproduces: "Lemma 5.4",
		Run: func(cfg Config) (*Table, error) {
			table := NewTable(
				"E15: Fourier weight below level r vs the Lemma 5.4 bound (m=10 variables)",
				"function", "mean", "r", "delta", "weight", "bound", "ratio",
			)
			rng := rand.New(rand.NewPCG(cfg.Seed+15, 1))
			worst := 0.0
			check := func(name string, f boolfn.Func) error {
				for _, r := range []int{1, 2, 3} {
					for _, delta := range []float64{0.3, 1} {
						rep, err := boolfn.CheckKKL(f, r, delta)
						if err != nil {
							return err
						}
						if rep.Ratio > worst {
							worst = rep.Ratio
						}
						table.MustAddRow(
							name, FmtF(rep.Mean), FmtInt(r), FmtF(delta),
							FmtSci(rep.Weight), FmtSci(rep.Bound), FmtRatio(rep.Ratio),
						)
					}
				}
				return nil
			}
			for _, p := range []float64{0.01, 0.05, 0.2, 0.5} {
				f, err := boolfn.RandomBiased(10, p, rng)
				if err != nil {
					return nil, err
				}
				if err := check(FmtF(p)+"-biased random", f); err != nil {
					return nil, err
				}
			}
			maj, err := boolfn.Majority(9)
			if err != nil {
				return nil, err
			}
			majF, err := boolfn.Extend(10, 0x1FF, maj)
			if err != nil {
				return nil, err
			}
			if err := check("majority(9)", majF); err != nil {
				return nil, err
			}
			thr, err := boolfn.ThresholdCount(10, 8)
			if err != nil {
				return nil, err
			}
			if err := check("threshold(8 of 10)", thr); err != nil {
				return nil, err
			}
			table.Notes = "Paper check: every ratio <= 1 (worst observed " + FmtRatio(worst) + ") — the level inequality the Lemma 4.3 proof leans on holds with room to spare."
			return table, nil
		},
	}
}
