// Package dist implements discrete probability distributions over a finite
// domain {0, ..., n-1}, the distances between them, efficient samplers, the
// Paninski-style hard family {nu_z} of Section 3 of Meir-Minzer-Oshman
// (PODC 2019), and Goldreich's reduction from identity testing to uniformity
// testing.
//
// # Batch sampling
//
// Every hot path draws through a BatchSampler's SampleInto, which fills
// a caller-owned buffer from a *PCG: math/rand/v2's PCG generator word
// for word, owned by this package so that a kernel can hold the state in
// locals for a whole batch. A kernel consumes exactly the words that as
// many Sample calls on rand.New(src) would, so batching never changes a
// seeded stream. The alias kernel computes a sample's index and coin
// states from one starting state (the coin's through two-step LCG
// constants) and tests the coin as an integer against the cell's keep
// threshold. Over a full table, which the uniform distribution yields,
// it reads only the index words: the even and the odd draws' index
// states form two chains, each moved four LCG steps by one multiply-add.
//
// # Domain conventions for the hard family
//
// The paper views the universe of size n = 2^(ell+1) as two copies of the
// Boolean cube {-1,1}^ell: elements are pairs (x, s) with x in {-1,1}^ell
// and a sign s in {-1,+1} matching each "left" vertex to its "right" twin.
// This package encodes the pair as the integer
//
//	id = (xIndex << 1) | sBit
//
// where bit j of xIndex is 1 exactly when x_j = -1, and sBit = 1 exactly
// when s = -1 (the same sign convention as package boolfn). The perturbed
// distribution is
//
//	nu_z(x, s) = (1 + s * z(x) * eps) / n,
//
// which is exactly eps-far from uniform in L1 for every perturbation z, and
// whose uniform mixture over z is exactly the uniform distribution.
package dist
