// Package dut is the public API of the distributed uniformity testing
// library, a full reproduction of Meir, Minzer and Oshman, "Can Distributed
// Uniformity Testing Be Local?" (PODC 2019).
//
// The library has four layers, all reachable from this package:
//
//   - Distributions (dut.Uniform, dut.Zipf, dut.NewHardFamily, ...): finite
//     discrete distributions, distances, samplers, and the paper's hard
//     family nu_z.
//   - Centralized testers (dut.TestUniformity, dut.NewCollisionTester,
//     dut.NewIdentityTester, ...): the classical baselines.
//   - Distributed testers (dut.NewThresholdTester, dut.NewANDTester,
//     dut.NewACTTester, dut.NewGroupLearner): the simultaneous-message
//     protocols the paper's lower bounds are measured against, runnable
//     in-process or as a real networked cluster (dut.NewCluster).
//   - Lower-bound machinery (dut.LowerBoundSamples, dut.ANDRuleLowerBound,
//     ...): closed-form evaluators of the paper's theorems, for plotting
//     measured costs against proven floors.
//
// The deeper machinery (Fourier analysis of strategies, exhaustive lemma
// verification, the experiment registry) lives in internal/ packages and is
// exposed through the cmd/ binaries; see README.md.
package dut

import (
	"fmt"
	"math/rand/v2"

	"github.com/distributed-uniformity/dut/internal/centralized"
	"github.com/distributed-uniformity/dut/internal/congest"
	"github.com/distributed-uniformity/dut/internal/core"
	"github.com/distributed-uniformity/dut/internal/dist"
	"github.com/distributed-uniformity/dut/internal/engine"
	"github.com/distributed-uniformity/dut/internal/lowerbound"
	"github.com/distributed-uniformity/dut/internal/network"
	"github.com/distributed-uniformity/dut/internal/stats"
)

// Core re-exported types. Aliases keep the facade zero-cost: values flow
// between this package and the internal implementations unchanged.
type (
	// Distribution is a discrete probability distribution over {0..n-1}.
	Distribution = dist.Dist
	// Sampler draws iid samples from a distribution.
	Sampler = dist.Sampler
	// HardFamily is the paper's Section 3 perturbation family over a
	// doubled Boolean cube.
	HardFamily = dist.HardInstance
	// Perturbation is the sign vector z selecting one nu_z.
	Perturbation = dist.Perturbation

	// Tester is a centralized distribution tester.
	Tester = centralized.Tester
	// ClosenessTester tests equality of two unknown distributions.
	ClosenessTester = centralized.ClosenessTester
	// IndependenceTester tests independence of pair-valued samples.
	IndependenceTester = centralized.IndependenceTester
	// Learner estimates a distribution from samples.
	Learner = centralized.Learner

	// Protocol is a distributed tester: k players, a referee, one verdict.
	Protocol = core.Protocol
	// LocalRule is a player's strategy.
	LocalRule = core.LocalRule
	// Referee is the decision function applied to the players' messages.
	Referee = core.Referee
	// DecisionRule is a Boolean referee rule over single-bit votes.
	DecisionRule = core.DecisionRule
	// Message is a player's report (up to 64 bits).
	Message = core.Message
	// ThresholdTesterConfig configures NewThresholdTester.
	ThresholdTesterConfig = core.ThresholdTesterConfig
	// GroupLearner is the distributed learning protocol of Theorem 1.4's
	// task.
	GroupLearner = core.GroupLearner

	// Cluster runs a protocol as a networked system (referee server +
	// player nodes).
	Cluster = network.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = network.ClusterConfig
	// Transport carries the cluster's frames.
	Transport = network.Transport
	// FaultTransport decorates a Transport with deterministic injected
	// faults for chaos testing.
	FaultTransport = network.FaultTransport
	// FaultConfig configures NewFaultTransport.
	FaultConfig = network.FaultConfig
	// FaultPlan is one player's injected-fault plan.
	FaultPlan = network.FaultPlan
	// FaultStats counts the faults a FaultTransport actually injected.
	FaultStats = network.FaultStats
	// AbsenteePolicy says how a quorum-mode referee treats missing votes.
	AbsenteePolicy = core.AbsenteePolicy

	// AcceptanceEstimate reports a Monte-Carlo acceptance probability with
	// a Wilson confidence interval.
	AcceptanceEstimate = stats.SuccessEstimate
)

// Decision rules, re-exported.
type (
	// ANDRule accepts iff every player accepts (the fully local rule).
	ANDRule = core.ANDRule
	// ORRule accepts iff any player accepts.
	ORRule = core.ORRule
	// ThresholdRule rejects iff at least T players reject.
	ThresholdRule = core.ThresholdRule
	// MajorityRule rejects iff a strict majority rejects.
	MajorityRule = core.MajorityRule
	// BitReferee lifts a DecisionRule to a Referee.
	BitReferee = core.BitReferee
	// QuantizedCollisionRule saturates each player's collision count
	// into an r-bit message (Theorem 6.4's communication regime).
	QuantizedCollisionRule = core.QuantizedCollisionRule
	// SumThresholdReferee accepts iff the sum of r-bit messages is at
	// most T.
	SumThresholdReferee = core.SumThresholdReferee
)

// Distribution constructors.
var (
	// Uniform returns U_n.
	Uniform = dist.Uniform
	// FromProbs builds a distribution from an explicit probability vector.
	FromProbs = dist.FromProbs
	// FromWeights builds a distribution proportional to weights.
	FromWeights = dist.FromWeights
	// Zipf returns a Zipf(s) distribution.
	Zipf = dist.Zipf
	// PairedBump is the canonical eps-far instance (+eps/n on even
	// elements, -eps/n on odd).
	PairedBump = dist.PairedBump
	// TwoBump tilts the two halves of the domain by ±eps/n.
	TwoBump = dist.TwoBump
	// HeavyHitter adds delta mass to one element.
	HeavyHitter = dist.HeavyHitter
	// NewHardFamily builds the paper's hard family with universe
	// n = 2^(ell+1).
	NewHardFamily = dist.NewHardInstance
	// NewSampler builds the default (alias-method) sampler.
	NewSampler = func(d Distribution) (Sampler, error) { return dist.NewAliasSampler(d) }

	// L1 is the L1 distance between distributions (the paper's metric).
	L1 = dist.L1
	// TV is the total variation distance.
	TV = dist.TV
	// KL is the Kullback-Leibler divergence in bits.
	KL = dist.KL
	// DistanceFromUniform is ||d - U_n||_1.
	DistanceFromUniform = dist.DistanceFromUniform
)

// Centralized testers.
var (
	// NewCollisionTester is the Goldreich-Ron/Paninski collision tester
	// (Theta(sqrt(n)/eps^2) samples).
	NewCollisionTester = centralized.NewCollisionTester
	// NewChiSquaredTester tests identity to a known distribution.
	NewChiSquaredTester = centralized.NewChiSquaredTester
	// NewPluginTester is the learn-then-compare baseline
	// (Theta(n/eps^2) samples).
	NewPluginTester = centralized.NewPluginTester
	// NewIdentityTester tests identity to an arbitrary known distribution
	// via Goldreich's reduction to uniformity.
	NewIdentityTester = centralized.NewIdentityTester
	// NewLearner builds an empirical (optionally smoothed) learner.
	NewLearner = centralized.NewLearner
	// NewClosenessTester tests whether two unknown distributions are equal
	// or eps-far (L2-flavored two-sample tester).
	NewClosenessTester = centralized.NewClosenessTester
	// NewIndependenceTester is Pearson's chi-squared independence test
	// over pair-encoded samples.
	NewIndependenceTester = centralized.NewIndependenceTester
	// ProductDist and CorrelatedPair build independence-testing workloads.
	ProductDist    = centralized.ProductDist
	CorrelatedPair = centralized.CorrelatedPair
	// RecommendedSamples is the collision tester's sample size for a 2/3
	// guarantee.
	RecommendedSamples = centralized.RecommendedSamples
)

// Distributed protocols.
var (
	// NewThresholdTester builds the sample-optimal threshold-rule tester
	// of Fischer-Meir-Oshman (q = O(sqrt(n/k)/eps^2)).
	NewThresholdTester = core.NewThresholdTester
	// NewANDTester builds the fully local AND-rule tester.
	NewANDTester = core.NewANDTester
	// NewAsymmetricThresholdTester supports per-player sample counts
	// (Section 6.2's model).
	NewAsymmetricThresholdTester = core.NewAsymmetricThresholdTester
	// NewACTTester builds the single-sample l-bit public-coin tester
	// (k = Theta(n/(2^{l/2} eps^2)) players).
	NewACTTester = core.NewACTTester
	// NewGroupLearner builds the distributed learning protocol.
	NewGroupLearner = core.NewGroupLearner
	// NewQuantizedCollisionRule builds the r-bit saturating collision
	// rule over [n] with q samples per player.
	NewQuantizedCollisionRule = core.NewQuantizedCollisionRule
	// NewQuantizedSumTester wires the quantized rule to a sum-threshold
	// referee at the recommended threshold.
	NewQuantizedSumTester = core.NewQuantizedSumTester
	// QuantizedSumThreshold is that recommended threshold (two standard
	// deviations above the uniform collision-sum mean).
	QuantizedSumThreshold = core.QuantizedSumThreshold
	// RecommendedThresholdSamples is the threshold tester's per-player q
	// for a 2/3 guarantee.
	RecommendedThresholdSamples = core.RecommendedThresholdSamples
	// RecommendedACTPlayers is the hashing tester's player count for a 2/3
	// guarantee.
	RecommendedACTPlayers = core.RecommendedACTPlayers
	// DefaultThresholdT is the referee threshold making the threshold
	// tester sample-optimal.
	DefaultThresholdT = core.DefaultThresholdT
	// RoundsForFailure sizes Engine.Amplify's majority vote for a target
	// failure probability.
	RoundsForFailure = core.RoundsForFailure
)

// Networked deployment.
var (
	// NewCluster runs a protocol as a referee server plus player nodes.
	// Cluster.Run executes one round on a cluster backend it opens and
	// closes. Many rounds, an amplification session among them, are an
	// Engine over NewClusterBackend (or BackendFor), which keeps the
	// connections open across rounds and reports each round's
	// RoundResult. With ClusterConfig.MinVotes set the cluster tolerates
	// stragglers down to the quorum.
	NewCluster = network.NewCluster
	// NewMemTransport is the in-process transport.
	NewMemTransport = network.NewMemTransport
	// NewFaultTransport decorates a transport with seeded fault injection.
	NewFaultTransport = network.NewFaultTransport
)

// Absentee policies for quorum-mode clusters: how a vote that never
// arrived enters the referee's decision.
const (
	// AbsenteeDefault defers to the decision rule's advice.
	AbsenteeDefault = core.AbsenteeDefault
	// AbsenteeReject counts a missing vote as a rejection.
	AbsenteeReject = core.AbsenteeReject
	// AbsenteeAccept counts a missing vote as an acceptance.
	AbsenteeAccept = core.AbsenteeAccept
	// AbsenteeOmit decides over the received votes only.
	AbsenteeOmit = core.AbsenteeOmit
)

// TCPTransport dials over TCP loopback.
type TCPTransport = network.TCPTransport

// Lower-bound formulas (Section 6 of the paper), for comparing measured
// costs against proven floors.
var (
	// LowerBoundSamples evaluates Theorem 6.1: any-rule distributed
	// uniformity testing needs q >= (C/eps^2) min(sqrt(n/k), n/k).
	LowerBoundSamples = lowerbound.Theorem61Q
	// ANDRuleLowerBound evaluates Theorem 6.5's AND-rule floor.
	ANDRuleLowerBound = lowerbound.Theorem65Q
	// ThresholdRuleLowerBound evaluates Theorem 1.3's T-threshold floor.
	ThresholdRuleLowerBound = lowerbound.Theorem13Q
	// LearningLowerBound evaluates Theorem 1.4: k = Omega(n^2/q^2).
	LearningLowerBound = lowerbound.Theorem14K
	// MultiBitLowerBound evaluates Theorem 6.4 for r-bit messages.
	MultiBitLowerBound = lowerbound.Theorem64Q
	// AsymmetricDeadlineLowerBound evaluates the Section 6.2 bound on the
	// common deadline tau.
	AsymmetricDeadlineLowerBound = lowerbound.AsymmetricTau
)

// TestUniformity runs the collision-based uniformity test on a batch of
// samples from a domain of size n with proximity eps. It returns true when
// the samples look uniform. The guarantee holds when len(samples) is at
// least RecommendedSamples(n, eps); with fewer samples the verdict is
// returned anyway but is weak.
func TestUniformity(samples []int, n int, eps float64) (bool, error) {
	if len(samples) < 2 {
		return false, fmt.Errorf("dut: uniformity test needs at least 2 samples, got %d", len(samples))
	}
	t, err := centralized.NewCollisionTester(n, len(samples), eps)
	if err != nil {
		return false, err
	}
	return t.Test(samples)
}

// NewRand returns a seeded generator of the kind every randomized API here
// accepts. Two generators with equal seeds produce identical streams.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// CONGEST-model deployment (the graph-network model of [FMO18], which
// Section 6.2 of the paper reduces to the referee model).
type (
	// Graph is an undirected communication graph for CONGEST deployments.
	Graph = congest.Graph
	// CONGESTTester runs a local rule over a Graph and decides with a
	// Referee that counts the votes (a threshold rule, or a sum over the
	// rule's width) by BFS-tree aggregation; it implements Protocol.
	CONGESTTester = congest.Tester
	// CONGESTTesterConfig configures NewCONGESTTester.
	CONGESTTesterConfig = congest.TesterConfig
)

// Unified execution engine: one context-aware trial driver behind the
// in-process SMP simulator, the networked cluster and the CONGEST
// deployment. All randomness derives from (seed, trial, player) streams,
// so equal seeds give bit-identical verdict sequences on every backend
// regardless of worker count.
type (
	// Engine bundles a Backend with EngineOptions; build one with
	// NewEngine and drive it via Run/Estimate/Separates/Amplify, the one
	// way to run many trials, and Close it when done.
	Engine = engine.Engine
	// Backend executes protocol rounds for the engine's trial driver.
	Backend = engine.Backend
	// RoundSpec names one trial for a Backend.
	RoundSpec = engine.RoundSpec
	// BatchBackend is the batched extension of Backend, with one
	// scratch per driver worker: the driver hands it whole slices of
	// trials (EngineOptions.Batch / EngineOptions.Window) so a backend
	// can pack many trials per wire frame and keep several batches in
	// flight, with verdicts still bit-identical to the unbatched run.
	BatchBackend = engine.BatchBackend
	// RoundResult is the uniform per-round accounting every backend
	// reports: the verdict, votes and stragglers, samples, and a CONGEST
	// round's messages and communication rounds.
	RoundResult = engine.RoundResult
	// EngineOptions configures the trial driver (workers, confidence,
	// base seed).
	EngineOptions = engine.Options
	// EngineResult is an estimate plus per-round results and totals.
	EngineResult = engine.Result
	// EngineTotals aggregates RoundResult accounting over a run.
	EngineTotals = engine.Totals
	// TrialSource yields the sampler for one trial; use FixedSource or
	// DistSource for the common cases.
	TrialSource = engine.Source
	// Separation is the engine's two-sided separation report.
	Separation = engine.Separation
	// SeparationOutcome is the three-valued verdict of a separation
	// check: Separated, NotSeparated or Inconclusive.
	SeparationOutcome = engine.Outcome
)

// Engine constructors and backend adapters.
var (
	// NewEngine bundles a backend with driver options.
	NewEngine = engine.New
	// BackendFor adapts any Protocol to the engine (a *core.SMP gets the
	// fully deterministic cross-backend treatment, a *Cluster its
	// NewClusterBackend and a *CONGESTTester its NewCONGESTBackend, with
	// the same verdicts).
	BackendFor = core.BackendFor
	// NewClusterBackend adapts a networked Cluster: each trial is one
	// full networked round whose verdict is bit-identical to the SMP
	// backend's for the same seed. The backend keeps its sessions open
	// between engine calls and is an io.Closer: close it when done,
	// directly or through the Engine's Close. An idle session closes by
	// itself after ClusterConfig.Timeout.
	NewClusterBackend = network.NewBackend
	// NewCONGESTBackend adapts a CONGEST tester; trials additionally
	// report Messages and CommRounds.
	NewCONGESTBackend = congest.NewBackend
	// FixedSource serves the same sampler on every trial.
	FixedSource = engine.Fixed
	// DistSource builds the default sampler for a distribution once and
	// serves it on every trial.
	DistSource = engine.FromDist
)

// Separation outcomes.
const (
	// Separated: both interval bounds clear the target.
	Separated = engine.Separated
	// NotSeparated: an interval bound misses the target.
	NotSeparated = engine.NotSeparated
	// SeparationInconclusive: an interval straddles the target.
	SeparationInconclusive = engine.Inconclusive
)

// Graph builders and the CONGEST tester constructor.
var (
	// NewGraph builds a graph from an edge list.
	NewGraph = congest.NewGraph
	// PathGraph, RingGraph, StarGraph, CompleteGraph, GridGraph and
	// RandomTreeGraph are standard topologies.
	PathGraph       = congest.Path
	RingGraph       = congest.Ring
	StarGraph       = congest.Star
	CompleteGraph   = congest.Complete
	GridGraph       = congest.Grid
	RandomTreeGraph = congest.RandomTree
	// NewCONGESTTester deploys a local rule and a counting Referee (by
	// default the DefaultThresholdT threshold rule over a single-bit
	// rule) over a graph with BFS-tree vote aggregation.
	NewCONGESTTester = congest.NewTester
)
