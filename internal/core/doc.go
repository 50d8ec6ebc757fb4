// Package core implements the paper's distributed distribution-testing
// model and the upper-bound protocols it is benchmarked against.
//
// # The model (Section 2 of the paper)
//
// k players each receive q iid samples from an unknown distribution mu over
// a universe of size n. Each player sends a short message (one bit in the
// basic model, up to 64 bits here) to a referee, who applies a decision
// function to the k messages and outputs accept ("mu satisfies the
// property") or reject ("mu is eps-far"). A protocol solves eps-uniformity
// testing if it accepts U_n with probability at least 2/3 and rejects every
// mu with ||mu - U_n||_1 >= eps with probability at least 2/3.
//
// The building blocks are:
//
//   - LocalRule: the per-player map from samples to a message (the Boolean
//     function G of the paper's Section 4). One rule value may serve many
//     concurrent callers, so the collision rules — the threshold vote and
//     QuantizedCollisionRule — count through a pooled statistic
//     (centralized.CollisionStatistic); that shared path is what the SMP
//     backend's workers use. A rule that keeps scratch implements
//     Instancer, and Instance returns a copy for one caller that counts
//     into a centralized.CollisionCounter of its own when the domain is
//     at most maxOwnedDomain (256, so 2 KiB per copy) and through the
//     pooled statistic otherwise: a cluster node takes one when it is
//     built, and a CONGEST worker with its scratch, and over such a
//     domain neither touches the pool.
//   - Referee: the decision function. Boolean single-bit decision rules —
//     AND, OR, T-threshold, majority, arbitrary — implement DecisionRule
//     and are lifted by BitReferee, which decides the four stock rules by
//     counting rejections (no allocation) and hands any other rule its
//     []bool. SumThresholdReferee, the r-bit tester's referee, sums the
//     message values. Both are counts (CountShape), so the cluster
//     decides them word-parallel and the CONGEST tester sums them up its
//     BFS tree; the cluster decides any other referee trial by trial, and
//     the CONGEST tester refuses it.
//   - SMP: the simultaneous-message protocol runner, supporting
//     heterogeneous per-player sample counts (the asymmetric-cost model of
//     Section 6.2) and shared randomness (a per-run public seed).
//
// # Protocols
//
//   - NewThresholdTester: the threshold-rule collision tester of
//     Fischer-Meir-Oshman (PODC 2018), sample-optimal per Theorem 1.1 with
//     q = O(sqrt(n/k)/eps^2).
//   - NewANDTester: the AND-rule (fully local) tester of the same paper,
//     whose per-player cost barely improves on centralized unless k is
//     exponential in 1/eps — the phenomenon quantified by Theorem 1.2.
//   - NewACTTester: the single-sample, l-bit public-coin tester in the
//     spirit of Acharya-Canonne-Tyagi (2018): players send a shared-
//     randomness bucket of their one sample, the referee collision-tests
//     the buckets; k = Theta(n/(2^{l/2} eps^2)) players suffice.
//   - NewGroupLearner: a distributed learner for the Theorem 1.4 task.
package core
