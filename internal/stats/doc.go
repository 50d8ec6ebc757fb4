// Package stats supplies the statistical machinery the reproduction needs
// and which the Go standard library lacks: streaming moment accumulators,
// confidence intervals for Bernoulli estimates, special functions
// (regularized incomplete gamma, chi-square and normal tails), combinatorial
// helpers (double factorials, log-binomials), Monte-Carlo success-probability
// estimation, and monotone threshold search used to measure empirical
// sample complexities.
//
// Everything is implemented from scratch against published formulas
// (Numerical Recipes-style series/continued-fraction evaluation for the
// incomplete gamma; Wilson score intervals; Welford accumulation) and tested
// against known values.
package stats
