package network

import (
	"fmt"
	"sort"

	"github.com/distributed-uniformity/dut/internal/engine"
)

// Topology describes the shape of the referee tree. The zero value is
// the flat star every prior protocol version speaks: all players dial
// the root referee directly. Shards > 1 inserts one tier of L1
// aggregators between the players and the root; each aggregator owns a
// fixed shard of players computed by Partition, so player->shard
// routing is a pure function of (k, Shards, Weights, Seed) that every
// process can evaluate independently — there is no membership
// negotiation on the wire beyond the root checking AGG_HELLO against
// the same function.
type Topology struct {
	// Shards is the number of L1 aggregators; 0 and 1 both mean flat.
	Shards int
	// Weights are relative aggregator capacities (heterogeneous
	// machines get proportionally larger shards). Nil means uniform.
	Weights []int
	// Seed, when non-zero, shuffles players across shards with the
	// deterministic engine RNG before dealing quota-sized chunks, so
	// shard membership is spread instead of contiguous. Zero keeps
	// contiguous ranges, which is the friendliest layout to read in
	// tests and traces.
	Seed uint64
}

// enabled reports whether the tree has an aggregator tier at all.
// Shards <= 1 keeps every code path byte-identical to the flat star.
func (t Topology) enabled() bool { return t.Shards > 1 }

// validate checks the topology against the player count.
func (t Topology) validate(k int) error {
	if t.Shards < 0 {
		return fmt.Errorf("network: negative shard count %d", t.Shards)
	}
	if t.Shards > k {
		return fmt.Errorf("network: %d shards for %d players; every shard needs at least one player", t.Shards, k)
	}
	if t.Shards > MaxShardPlayers {
		return fmt.Errorf("network: %d shards exceeds limit %d", t.Shards, MaxShardPlayers)
	}
	if t.Weights != nil {
		if len(t.Weights) != t.Shards {
			return fmt.Errorf("network: %d aggregator weights for %d shards", len(t.Weights), t.Shards)
		}
		for i, w := range t.Weights {
			if w < 1 {
				return fmt.Errorf("network: aggregator weight %d for shard %d, want >= 1", w, i)
			}
		}
	}
	return nil
}

// quotas apportions k players over the shards: one player per shard as
// a floor (an empty shard is never useful), then the remaining k-s by
// largest-remainder over the weights, ties broken toward the lower
// shard index. The result is deterministic and sums to exactly k.
func (t Topology) quotas(k int) []int {
	s := t.Shards
	q := make([]int, s)
	for i := range q {
		q[i] = 1
	}
	rest := k - s
	if rest == 0 {
		return q
	}
	totalW := 0
	weight := func(i int) int {
		if t.Weights == nil {
			return 1
		}
		return t.Weights[i]
	}
	for i := 0; i < s; i++ {
		totalW += weight(i)
	}
	// Integer largest-remainder: floor share rest*w/W, then hand the
	// leftover seats to the largest remainders (rest*w mod W), lower
	// index first on ties.
	type frac struct{ rem, idx int }
	fracs := make([]frac, s)
	assigned := 0
	for i := 0; i < s; i++ {
		share := rest * weight(i) / totalW
		q[i] += share
		assigned += share
		fracs[i] = frac{rem: rest * weight(i) % totalW, idx: i}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].rem != fracs[b].rem {
			return fracs[a].rem > fracs[b].rem
		}
		return fracs[a].idx < fracs[b].idx
	})
	for i := 0; i < rest-assigned; i++ {
		q[fracs[i].idx]++
	}
	return q
}

// Partition assigns the k players to shards and returns each shard's
// member ids in ascending order. Every process in the tree — root,
// aggregators, players, fault injectors — computes the same partition
// from the same Topology, which is what lets the root reject an
// AGG_HELLO whose membership disagrees with the router.
func (t Topology) Partition(k int) [][]uint32 {
	q := t.quotas(k)
	order := make([]uint32, k)
	for i := range order {
		order[i] = uint32(i)
	}
	if t.Seed != 0 {
		rng := engine.NodeRNG(t.Seed, 0)
		rng.Shuffle(k, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	shards := make([][]uint32, t.Shards)
	off := 0
	for i, n := range q {
		members := make([]uint32, n)
		copy(members, order[off:off+n])
		off += n
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
		shards[i] = members
	}
	return shards
}
