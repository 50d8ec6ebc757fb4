package main

// dut verify numerically verifies every identity and inequality the
// paper proves, on exhaustive small instances: Claim 3.1, Lemma 4.1,
// equation (3), Lemmas 5.1/4.2/4.3/4.4, Proposition 5.2, Lemma 5.5,
// Lemma 5.4 (KKL), and Fact 6.3. It prints one PASS/FAIL line per check
// and exits non-zero on any failure.

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"

	"github.com/distributed-uniformity/dut/internal/boolfn"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/lowerbound"
	"github.com/distributed-uniformity/dut/internal/stats"
)

type reporter struct {
	failures int
	verbose  bool
	out      io.Writer
}

func (r *reporter) check(name string, ok bool, detail string) {
	w := r.out
	if w == nil {
		w = os.Stdout
	}
	status := "PASS"
	if !ok {
		status = "FAIL"
		r.failures++
	}
	if !ok || r.verbose {
		fmt.Fprintf(w, "%s  %-60s %s\n", status, name, detail)
	} else {
		fmt.Fprintf(w, "%s  %s\n", status, name)
	}
}

func cmdVerify(args []string) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	var (
		seed    = fs.Uint64("seed", 1, "random seed")
		verbose = fs.Bool("v", false, "print details for passing checks too")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return verifyAll(*seed, *verbose)
}

// verifyAll runs the complete checklist; split from cmdVerify so tests
// can call it without flag parsing.
func verifyAll(seed uint64, verbose bool) int {
	rep := &reporter{verbose: verbose}
	rng := rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))

	verifyIdentities(rep, rng)
	verifyLemmas(rep, rng)
	verifyCombinatorics(rep)
	verifyKKLAndFact63(rep, rng)
	verifyOptimalStrategy(rep)

	fmt.Println()
	if rep.failures > 0 {
		fmt.Printf("%d check(s) FAILED\n", rep.failures)
		return 1
	}
	fmt.Println("all checks passed")
	return 0
}

func verifyIdentities(rep *reporter, rng *rand.Rand) {
	for _, ic := range []struct {
		ell, q int
		eps    float64
	}{{1, 2, 0.5}, {2, 3, 0.3}, {3, 2, 0.7}} {
		in, err := lowerbound.NewInstance(ic.ell, ic.q, ic.eps)
		if err != nil {
			rep.check("instance construction", false, err.Error())
			continue
		}
		z, err := dist.RandomPerturbation(in.Ell, rng)
		if err != nil {
			rep.check("perturbation", false, err.Error())
			continue
		}
		var worst float64
		for idx := uint64(0); idx < uint64(1)<<uint(in.InputBits()); idx++ {
			samples, err := in.SamplesFromInput(idx)
			if err != nil {
				rep.check("sample decode", false, err.Error())
				return
			}
			direct, err := in.NuZQ(z, samples)
			if err != nil {
				rep.check("NuZQ", false, err.Error())
				return
			}
			fourier, err := in.NuZQFourier(z, samples)
			if err != nil {
				rep.check("NuZQFourier", false, err.Error())
				return
			}
			if r := math.Abs(direct - fourier); r > worst {
				worst = r
			}
		}
		rep.check(fmt.Sprintf("Claim 3.1 pointwise (ell=%d q=%d)", ic.ell, ic.q),
			worst < 1e-14, fmt.Sprintf("max residual %.2e", worst))

		g, err := lowerbound.RandomStrategy(in, 0.4, rng)
		if err != nil {
			rep.check("strategy", false, err.Error())
			continue
		}
		e, err := lowerbound.NewDiffEvaluator(in, g)
		if err != nil {
			rep.check("evaluator", false, err.Error())
			continue
		}
		fast, err := e.Diff(z)
		if err != nil {
			rep.check("Diff", false, err.Error())
			continue
		}
		slow, err := in.NuZDirect(g, z)
		if err != nil {
			rep.check("NuZDirect", false, err.Error())
			continue
		}
		res := math.Abs(fast - (slow - e.Mu()))
		rep.check(fmt.Sprintf("Lemma 4.1 spectral=direct (ell=%d q=%d)", ic.ell, ic.q),
			res < 1e-12, fmt.Sprintf("residual %.2e", res))

		mean, _, err := e.ZMoments()
		if err != nil {
			rep.check("ZMoments", false, err.Error())
			continue
		}
		eq3 := math.Abs(mean - e.ExpectedDiffEvenCover())
		rep.check(fmt.Sprintf("equation (3) even-cover formula (ell=%d q=%d)", ic.ell, ic.q),
			eq3 < 1e-12, fmt.Sprintf("residual %.2e", eq3))
	}
}

func verifyLemmas(rep *reporter, rng *rand.Rand) {
	grid := []struct {
		ell, q int
		eps    float64
	}{{2, 3, 0.1}, {3, 3, 0.15}, {3, 4, 0.2}}
	for _, ic := range grid {
		in, err := lowerbound.NewInstance(ic.ell, ic.q, ic.eps)
		if err != nil {
			rep.check("instance", false, err.Error())
			continue
		}
		for _, p := range []float64{0.5, 0.05} {
			g, err := lowerbound.RandomStrategy(in, p, rng)
			if err != nil {
				rep.check("strategy", false, err.Error())
				continue
			}
			e, err := lowerbound.NewDiffEvaluator(in, g)
			if err != nil {
				rep.check("evaluator", false, err.Error())
				continue
			}
			mean, second, err := e.ZMoments()
			if err != nil {
				rep.check("moments", false, err.Error())
				continue
			}
			name := fmt.Sprintf("(ell=%d q=%d eps=%v p=%v)", ic.ell, ic.q, ic.eps, p)
			if lowerbound.Lemma51Precondition(in.N(), in.Q, in.Eps) {
				b, err := lowerbound.Lemma51Bound(in.N(), in.Q, in.Eps, e.Var())
				if err != nil {
					rep.check("L5.1 bound", false, err.Error())
				} else {
					rep.check("Lemma 5.1 "+name, math.Abs(mean) <= b+1e-12,
						fmt.Sprintf("|E diff|=%.2e bound=%.2e", math.Abs(mean), b))
				}
			}
			if lowerbound.Lemma42Precondition(in.N(), in.Q, in.Eps) {
				b, err := lowerbound.Lemma42Bound(in.N(), in.Q, in.Eps, e.Var())
				if err != nil {
					rep.check("L4.2 bound", false, err.Error())
				} else {
					rep.check("Lemma 4.2 "+name, second <= b+1e-12,
						fmt.Sprintf("E diff^2=%.2e bound=%.2e", second, b))
				}
			}
		}
	}

	// Lemma 4.3 / 4.4 on their dedicated biased-regime instance.
	in, err := lowerbound.NewInstance(3, 3, 0.08)
	if err != nil {
		rep.check("biased instance", false, err.Error())
		return
	}
	for _, p := range []float64{0.01, 0.1} {
		g, err := lowerbound.RandomStrategy(in, p, rng)
		if err != nil {
			rep.check("strategy", false, err.Error())
			continue
		}
		e, err := lowerbound.NewDiffEvaluator(in, g)
		if err != nil {
			rep.check("evaluator", false, err.Error())
			continue
		}
		mean, second, err := e.ZMoments()
		if err != nil {
			rep.check("moments", false, err.Error())
			continue
		}
		for _, m := range []int{1, 2} {
			if lowerbound.Lemma43Precondition(in.N(), in.Q, m, in.Eps) {
				b, err := lowerbound.Lemma43Bound(in.N(), in.Q, m, in.Eps, e.Var())
				if err != nil {
					rep.check("L4.3 bound", false, err.Error())
				} else {
					rep.check(fmt.Sprintf("Lemma 4.3 (m=%d p=%v)", m, p), math.Abs(mean) <= b+1e-12,
						fmt.Sprintf("|E diff|=%.2e bound=%.2e", math.Abs(mean), b))
				}
			}
			b, err := lowerbound.Lemma44Bound(in.N(), in.Q, m, in.Eps, e.Var(), 1)
			if err != nil {
				rep.check("L4.4 bound", false, err.Error())
			} else {
				rep.check(fmt.Sprintf("Lemma 4.4 C=1 (m=%d p=%v)", m, p), second <= b+1e-12,
					fmt.Sprintf("E diff^2=%.2e bound=%.2e", second, b))
			}
		}
	}
}

func verifyCombinatorics(rep *reporter) {
	for _, g := range []struct{ ell, q int }{{2, 4}, {3, 4}} {
		for size := 2; size <= g.q; size += 2 {
			set := uint64(1)<<uint(size) - 1
			exact, err := lowerbound.CountEvenlyCovered(g.ell, g.q, set)
			if err != nil {
				rep.check("CountEvenlyCovered", false, err.Error())
				continue
			}
			bound, err := lowerbound.XSBound(g.ell, g.q, size)
			if err != nil {
				rep.check("XSBound", false, err.Error())
				continue
			}
			rep.check(fmt.Sprintf("Proposition 5.2 (ell=%d q=%d |S|=%d)", g.ell, g.q, size),
				float64(exact) <= bound+1e-9, fmt.Sprintf("exact=%d bound=%.3g", exact, bound))
		}
	}
	for _, g := range []struct{ ell, q, r, m int }{{2, 4, 1, 2}, {2, 4, 2, 2}, {3, 4, 1, 2}} {
		exact, err := lowerbound.ARMomentExact(g.ell, g.q, g.r, g.m)
		if err != nil {
			rep.check("ARMomentExact", false, err.Error())
			continue
		}
		bound, err := lowerbound.ARMomentBound(g.ell, g.q, g.r, g.m)
		if err != nil {
			rep.check("ARMomentBound", false, err.Error())
			continue
		}
		rep.check(fmt.Sprintf("Lemma 5.5 (ell=%d q=%d r=%d m=%d)", g.ell, g.q, g.r, g.m),
			exact <= bound+1e-9, fmt.Sprintf("exact=%.3g bound=%.3g", exact, bound))
	}
}

func verifyKKLAndFact63(rep *reporter, rng *rand.Rand) {
	worst := 0.0
	ok := true
	for _, p := range []float64{0.02, 0.1, 0.5} {
		f, err := boolfn.RandomBiased(9, p, rng)
		if err != nil {
			rep.check("RandomBiased", false, err.Error())
			return
		}
		for _, r := range []int{1, 2} {
			for _, delta := range []float64{0.3, 1} {
				res, err := boolfn.CheckKKL(f, r, delta)
				if err != nil {
					rep.check("CheckKKL", false, err.Error())
					return
				}
				if res.Ratio > worst {
					worst = res.Ratio
				}
				ok = ok && res.Satisfied
			}
		}
	}
	rep.check("Lemma 5.4 (KKL level inequality)", ok, fmt.Sprintf("worst ratio %.3f", worst))

	worst = 0
	ok = true
	for _, alpha := range []float64{0.01, 0.3, 0.7, 0.99} {
		for _, beta := range []float64{0.05, 0.5, 0.95} {
			kl, err := stats.BernoulliKL(alpha, beta)
			if err != nil {
				rep.check("BernoulliKL", false, err.Error())
				return
			}
			bound, err := stats.BernoulliKLChiBound(alpha, beta)
			if err != nil {
				rep.check("BernoulliKLChiBound", false, err.Error())
				return
			}
			if bound > 0 && kl/bound > worst {
				worst = kl / bound
			}
			ok = ok && kl <= bound+1e-12
		}
	}
	rep.check("Fact 6.3 (KL <= chi-squared bound)", ok, fmt.Sprintf("worst ratio %.3f", worst))
}

// verifyOptimalStrategy is appended to the main checks by init; it
// confirms the closed-form extremal strategy is (a) truly attained and
// (b) still below the Lemma 5.1 bound.
func verifyOptimalStrategy(rep *reporter) {
	for _, ic := range []struct {
		ell, q int
		eps    float64
	}{{2, 3, 0.1}, {3, 3, 0.15}} {
		in, err := lowerbound.NewInstance(ic.ell, ic.q, ic.eps)
		if err != nil {
			rep.check("optimal instance", false, err.Error())
			continue
		}
		g, claimed, err := lowerbound.OptimalFirstMomentStrategy(in)
		if err != nil {
			rep.check("optimal strategy", false, err.Error())
			continue
		}
		e, err := lowerbound.NewDiffEvaluator(in, g)
		if err != nil {
			rep.check("optimal evaluator", false, err.Error())
			continue
		}
		mean, _, err := e.ZMoments()
		if err != nil {
			rep.check("optimal moments", false, err.Error())
			continue
		}
		rep.check(fmt.Sprintf("optimal strategy attains its value (ell=%d q=%d)", ic.ell, ic.q),
			math.Abs(mean-claimed) < 1e-14, fmt.Sprintf("attained %.3e claimed %.3e", mean, claimed))
		if lowerbound.Lemma51Precondition(in.N(), in.Q, in.Eps) {
			bound, err := lowerbound.Lemma51Bound(in.N(), in.Q, in.Eps, e.Var())
			if err != nil {
				rep.check("optimal bound", false, err.Error())
				continue
			}
			rep.check(fmt.Sprintf("Lemma 5.1 dominates the OPTIMAL strategy (ell=%d q=%d)", ic.ell, ic.q),
				claimed <= bound+1e-12, fmt.Sprintf("optimal %.3e bound %.3e (tightness %.3f)", claimed, bound, claimed/bound))
		}
	}
}
