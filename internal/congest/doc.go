// Package congest implements the CONGEST network model in which
// Fischer-Meir-Oshman (PODC 2018) originally placed distributed uniformity
// testing, and which Meir-Minzer-Oshman's Section 6.2 reduces to the
// simultaneous-message model this repository centers on.
//
// The model: an undirected graph of nodes computing in synchronous rounds;
// in each round every node may send one bounded-size message (O(log n)
// bits — enforced by the simulator) over each incident edge. There is no
// referee; the nodes themselves must reach the verdict.
//
// The package provides:
//
//   - Graph: immutable undirected graphs with standard builders (path,
//     ring, star, complete, grid, random tree) and BFS.
//   - Simulator: a deterministic synchronous-round engine with per-edge
//     message-size accounting; protocols are node state machines. Rounds
//     are event-driven: after round 0 only the nodes with mail or a wake
//     request step, and inboxes and outboxes carry one mail bit per
//     neighbor, so a round delivers only the messages that were sent.
//   - Tester: the tree-aggregation tester — build a BFS tree from a root,
//     have every node vote with the same local rule the SMP testers use,
//     convergecast the count the referee decides on (rejections under a
//     threshold rule, message values under an r-bit sum), decide at the
//     root with the SMP's referee, and broadcast the verdict. Round
//     complexity O(diameter); every message fits in O(log k) bits.
//
// The equivalence tested in this package — the CONGEST tester accepts
// exactly when the SMP's referee would on the same votes — is the
// constructive form of the reduction the paper invokes: lower bounds
// proved for the referee model transfer to CONGEST.
package congest
