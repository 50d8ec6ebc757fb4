// Package engine is the unified execution engine behind every way this
// repository runs the paper's referee-model protocol: the in-process SMP
// simulator, the networked cluster (memory or TCP transport), and the
// CONGEST-over-graph deployment. The paper's results (Theorems 1.1-1.4,
// 6.4) are statements about one protocol executed under different rules
// and budgets; the engine makes the code match that framing by putting a
// single trial driver behind every backend.
//
// # The Backend interface
//
// A Backend executes one protocol round:
//
//	RunRound(ctx, RoundSpec) (RoundResult, error)
//
// The driver itself calls one method, BatchBackend.RunRoundsScratch, once
// per chunk of Batch*Window consecutive trials of one seed; Options.Batch
// 0 means a chunk of one trial at batch 1. The cluster backend relies on
// the consecutive trials: its ROUND_BATCH frames name trial ranges.
// Every in-process backend is a Loop: a player count, a per-worker
// scratch constructor and one trial function, whose chunk is its trials
// in order on the worker's scratch. A backend without a batch path runs
// as a Loop over its RunRoundScratch (or RunRound), so every backend
// runs the same driver code.
//
// RoundSpec names the trial index, the engine's base seed and the sampler
// for the unknown distribution; RoundResult is the uniform per-round
// accounting (verdict, votes, stragglers, retries, samples drawn, and —
// for message-passing backends — message and communication round
// counts), so in-process runs get the same accounting a deployment has.
// Run returns trial i's result at index i.
//
// Adapters live next to the types they wrap, keeping this package a leaf:
//
//   - core.BackendFor adapts any core.Protocol; *core.SMP gets the
//     deterministic per-player treatment below, a *network.Cluster gets
//     network.NewBackend and a *congest.Tester congest.NewBackend.
//   - network.NewBackend adapts a *network.Cluster (one live batch
//     session per driver worker, parked between calls for the next
//     call to reuse; Engine.Close closes the parked sessions).
//     Cluster.Run is one engine trial on a backend of its own.
//   - congest.NewBackend adapts a *congest.Tester (one synchronous-round
//     graph simulation per trial).
//
// # RNG stream derivation
//
// Reproducibility across backends and worker counts comes from deriving
// every generator from (seed, trial, player) and nothing else:
//
//	shared  = SharedSeed(seed, trial)       // the round's public coin
//	private = NodeRNG(shared, player)       // player's sampling + coins
//	source  = TrialRNG(seed, trial)         // per-trial Source randomness
//
// SharedSeed and NodeRNG are splitmix64-mixed PCG streams. A player's
// private stream is a function of the round's public coin and its own id,
// so a networked node rebuilds it from the base seed and trial its
// ROUND_BATCH frame names — the public coin itself never crosses the
// wire — and an SMP round, a cluster round and a CONGEST round with the
// same rule, player count and sample budget produce bit-identical votes
// and verdicts. The contract holds for any message width the rule
// declares (LocalRule.Bits), not just single-bit votes: an r-bit message
// is the same uint64 on every backend, whether it rides the VOTE_BATCH
// planes or a CONGEST convergecast. The driver assigns whole trials to
// workers, so verdict sequences are also independent of Options.Workers.
//
// # The trial driver
//
// Run executes trials over a worker pool with context cancellation and
// early abort on the first error; Estimate adds Wilson-interval success
// estimation; Separates gives the 2/3-vs-1/3 verdict using the interval
// bounds (three-valued: separated, not separated, or inconclusive when
// the intervals straddle the target); Amplify majority-votes an odd
// number of rounds. The Engine type bundles a Backend with Options for
// the facade (dut.NewEngine). These are the only way to run many
// trials: a Protocol's own Run method is one trial, and a multi-round
// cluster session is Run or Amplify with one worker on
// network.NewBackend. Close the Engine (Engine.Close) when done, which
// closes a backend that keeps sessions between calls.
package engine
