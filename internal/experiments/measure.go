package experiments

import (
	"context"
	"fmt"
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/stats"
)

// successTarget is the paper's correctness requirement.
const successTarget = 2.0 / 3

// errOnce keeps the first error a stats.EstimateSuccess trial records:
// a trial function reports success only, so an experiment's trial files
// its error here and checks it once the estimate returns.
type errOnce struct{ err error }

func (e *errOnce) record(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *errOnce) get() error { return e.err }

// acceptUniform estimates Pr[protocol accepts] under U_n via the engine's
// trial driver.
func acceptUniform(p core.Protocol, n, trials int, opts stats.EstimateOptions) (float64, error) {
	u, err := dist.Uniform(n)
	if err != nil {
		return 0, err
	}
	b, err := core.BackendFor(p)
	if err != nil {
		return 0, err
	}
	src, err := engine.FromDist(u)
	if err != nil {
		return 0, err
	}
	res, err := engine.Estimate(context.Background(), b, src, trials, engine.FromEstimateOptions(opts))
	if err != nil {
		return 0, err
	}
	return res.Estimate.P, nil
}

// acceptHardFamily estimates E_z Pr[protocol accepts nu_z]: every trial
// draws a fresh perturbation from its per-trial stream, matching the
// lower bound's averaged adversary. Trials run on the engine's worker
// pool and abort as soon as any perturbation or run errors. The
// adversary's per-trial alias sampler is a dist.BatchSampler, so the
// backend's scratch path drains each player's q samples in one batched
// SampleInto; only the perturbed distribution itself is built per trial.
func acceptHardFamily(p core.Protocol, h dist.HardInstance, trials int, opts stats.EstimateOptions) (float64, error) {
	b, err := core.BackendFor(p)
	if err != nil {
		return 0, err
	}
	src := func(_ int, rng *rand.Rand) (dist.Sampler, error) {
		nu, _, err := h.RandomPerturbed(rng)
		if err != nil {
			return nil, err
		}
		return dist.NewAliasSampler(nu)
	}
	res, err := engine.Estimate(context.Background(), b, src, trials, engine.FromEstimateOptions(opts))
	if err != nil {
		return 0, err
	}
	return res.Estimate.P, nil
}

// worksAt reports whether the protocol meets the paper's guarantee at its
// current configuration: accepts uniform and rejects the averaged hard
// family, each with probability >= 2/3. The search predicates keep the
// point-estimate semantics (a CI-based decision would turn borderline
// configurations into search failures rather than boundary noise).
func worksAt(p core.Protocol, n int, h dist.HardInstance, trials int, opts stats.EstimateOptions) (bool, error) {
	pu, err := acceptUniform(p, n, trials, opts)
	if err != nil {
		return false, err
	}
	if pu < successTarget {
		return false, nil
	}
	farOpts := opts
	farOpts.Seed ^= 0x94d049bb133111eb
	pf, err := acceptHardFamily(p, h, trials, farOpts)
	if err != nil {
		return false, err
	}
	return 1-pf >= successTarget, nil
}

// MinimalQ measures the empirical minimal per-player sample count at which
// build(q) meets the guarantee, searching [startQ, maxQ].
func MinimalQ(build func(q int) (core.Protocol, error), n int, h dist.HardInstance,
	startQ, maxQ, trials int, opts stats.EstimateOptions) (int, error) {
	if build == nil {
		return 0, fmt.Errorf("experiments: nil protocol builder")
	}
	pred := func(q int) (bool, error) {
		p, err := build(q)
		if err != nil {
			return false, err
		}
		qOpts := opts
		qOpts.Seed ^= uint64(q) * 0x9e3779b97f4a7c15
		return worksAt(p, n, h, trials, qOpts)
	}
	return stats.GrowThenShrink(startQ, maxQ, pred)
}

// MinimalK measures the empirical minimal player count at which build(k)
// meets the guarantee.
func MinimalK(build func(k int) (core.Protocol, error), n int, h dist.HardInstance,
	startK, maxK, trials int, opts stats.EstimateOptions) (int, error) {
	if build == nil {
		return 0, fmt.Errorf("experiments: nil protocol builder")
	}
	pred := func(k int) (bool, error) {
		p, err := build(k)
		if err != nil {
			return false, err
		}
		kOpts := opts
		kOpts.Seed ^= uint64(k) * 0xbf58476d1ce4e5b9
		return worksAt(p, n, h, trials, kOpts)
	}
	return stats.GrowThenShrink(startK, maxK, pred)
}
