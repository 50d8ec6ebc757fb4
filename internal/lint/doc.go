// Package lint is the repository's custom static-analysis pass: a
// stdlib-only driver (go/parser + go/types, package discovery via
// `go list -export -json`) running repo-aware analyzers that enforce the
// engine's determinism and scratch contracts at compile time instead of
// only via cross-backend tests.
//
// The six analyzers and the contract each guards:
//
//   - dut/nondeterminism — deterministic packages (internal/core, dist,
//     engine, congest, network) must not read wall-clock time, use the
//     global math/rand generators, construct ad-hoc rand.Rand values,
//     seed a dist.PCG outside internal/engine and internal/dist, or
//     iterate maps (iteration order leaks into behavior). Randomness
//     routes through engine.NodeRNG / TrialRNG / ReusableRNG; elapsed
//     time is measured outside these packages.
//   - dut/scratchalias — a slice handed to SampleInto (or a scratch
//     buffer of RunRoundScratch) is owned by the callee only for the
//     call: retaining it in a field, returning it, or append-ing to it
//     can reallocate and break the zero-alloc + bit-identical contracts.
//   - dut/floateq — ==/!= on float operands in the numeric packages
//     (internal/stats, lowerbound, centralized) outside tolerance
//     helpers; exact comparisons that are mathematically intended carry
//     a //lint:ignore with the reason.
//   - dut/framediscipline — internal/network and internal/congest must
//     speak the validated frame encoder (wire.go): no raw conn.Write /
//     binary.Write, no frame read before a deadline was set in the same
//     function, and no frame write under a deadline that sampling or
//     rule evaluation may have consumed.
//   - dut/ctxprop — goroutines and unconditional loops inside
//     context-bearing engine/cluster driver functions must observe the
//     trial context (or a CancelFunc), so driver cancellation reaches
//     every spawned worker.
//   - dut/seedpurity — arithmetic on seed values belongs in the engine's
//     derivation module (internal/engine/rng.go: SharedSeed, NodeRNG,
//     TrialRNG, FarSeed); ad-hoc seed mixing elsewhere forks the
//     (seed, trial, player) stream space.
//
// False positives are suppressed in place:
//
//	//lint:ignore dut/<rule> <reason>
//
// on the line before (or the end of) the flagged line; stacked
// directives each suppress their own rule for the first following
// non-directive line. A directive with an unknown rule name or a missing
// reason is itself reported (dut/ignore).
//
// cmd/dutlint is the command-line driver; `make lint` runs it over ./...
package lint
