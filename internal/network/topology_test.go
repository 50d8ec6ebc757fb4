package network

import (
	"fmt"
	"testing"
)

func TestTopologyValidate(t *testing.T) {
	bad := []struct {
		name string
		topo Topology
		k    int
	}{
		{"negative shards", Topology{Shards: -1}, 4},
		{"more shards than players", Topology{Shards: 5}, 4},
		{"weights length mismatch", Topology{Shards: 2, Weights: []int{1}}, 4},
		{"zero weight", Topology{Shards: 2, Weights: []int{1, 0}}, 4},
		{"negative weight", Topology{Shards: 2, Weights: []int{1, -3}}, 4},
		// Partition would give shard 0 139,859 members, and each uniform
		// shard 150,000: more than one AGG_HELLO carries.
		{"skewed shard over the member limit", Topology{Shards: 2, Weights: []int{1000, 1}}, 140000},
		{"uniform shards over the member limit", Topology{Shards: 2}, 300000},
	}
	for _, tc := range bad {
		if err := tc.topo.validate(tc.k); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	good := []struct {
		name string
		topo Topology
		k    int
	}{
		{"flat zero value", Topology{}, 4},
		{"one shard", Topology{Shards: 1}, 4},
		{"shards equal players", Topology{Shards: 4}, 4},
		{"weighted", Topology{Shards: 2, Weights: []int{3, 1}}, 8},
		{"seeded", Topology{Shards: 2, Seed: 9}, 8},
		{"shards at the member limit", Topology{Shards: 2}, 2 * MaxShardPlayers},
		{"flat star over the member limit", Topology{}, 300000},
	}
	for _, tc := range good {
		if err := tc.topo.validate(tc.k); err != nil {
			t.Errorf("%s rejected: %v", tc.name, err)
		}
	}
	if (Topology{}).enabled() || (Topology{Shards: 1}).enabled() {
		t.Error("flat topology reports enabled")
	}
	if !(Topology{Shards: 2}).enabled() {
		t.Error("two-shard topology reports disabled")
	}
}

func TestTopologyQuotas(t *testing.T) {
	cases := []struct {
		topo Topology
		k    int
		want []int
	}{
		// Uniform weights: players split as evenly as possible, earlier
		// shards absorbing the remainder.
		{Topology{Shards: 4}, 16, []int{4, 4, 4, 4}},
		{Topology{Shards: 4}, 18, []int{5, 5, 4, 4}},
		{Topology{Shards: 3}, 4, []int{2, 1, 1}},
		// The one-player floor: a shard never goes empty even when the
		// weights say it should round down to zero.
		{Topology{Shards: 3, Weights: []int{100, 1, 1}}, 4, []int{2, 1, 1}},
		// Weighted proportionality: a 3:1 weight ratio yields a 3:1 shard
		// ratio once the floor seats are dealt.
		{Topology{Shards: 2, Weights: []int{3, 1}}, 10, []int{7, 3}},
		// Largest-remainder tie goes to the lower index.
		{Topology{Shards: 2, Weights: []int{1, 1}}, 3, []int{2, 1}},
	}
	for _, tc := range cases {
		got := tc.topo.quotas(tc.k)
		sum := 0
		for _, n := range got {
			sum += n
		}
		if sum != tc.k {
			t.Errorf("quotas(%+v, k=%d) sum to %d, want %d", tc.topo, tc.k, sum, tc.k)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("quotas(%+v, k=%d) = %v, want %v", tc.topo, tc.k, got, tc.want)
		}
	}
}

// assertPartition checks the universal invariants of any partition:
// shards are disjoint, cover exactly the players 0..k-1, and members are
// ascending within each shard.
func assertPartition(t *testing.T, topo Topology, k int, shards [][]uint32) {
	t.Helper()
	if len(shards) != topo.Shards {
		t.Fatalf("%d shards, want %d", len(shards), topo.Shards)
	}
	seen := make(map[uint32]int)
	for i, members := range shards {
		if len(members) == 0 {
			t.Fatalf("shard %d is empty", i)
		}
		for j, p := range members {
			if j > 0 && members[j-1] >= p {
				t.Fatalf("shard %d members not ascending: %v", i, members)
			}
			if prev, dup := seen[p]; dup {
				t.Fatalf("player %d in shards %d and %d", p, prev, i)
			}
			if p >= uint32(k) {
				t.Fatalf("shard %d holds player %d, outside 0..%d", i, p, k-1)
			}
			seen[p] = i
		}
	}
	if len(seen) != k {
		t.Fatalf("partition covers %d players, want %d", len(seen), k)
	}
}

func TestTopologyPartitionContiguous(t *testing.T) {
	topo := Topology{Shards: 3}
	shards := topo.Partition(8)
	assertPartition(t, topo, 8, shards)
	// Seed zero keeps contiguous ranges: [0..2], [3..5], [6..7].
	want := [][]uint32{{0, 1, 2}, {3, 4, 5}, {6, 7}}
	for i := range want {
		if fmt.Sprint(shards[i]) != fmt.Sprint(want[i]) {
			t.Errorf("shard %d = %v, want %v", i, shards[i], want[i])
		}
	}
}

func TestTopologyPartitionSeeded(t *testing.T) {
	topo := Topology{Shards: 4, Seed: 0xabcdef}
	first := topo.Partition(32)
	assertPartition(t, topo, 32, first)
	// The same topology partitions identically every time — the router is
	// a pure function that players, aggregators and the root all evaluate
	// independently.
	second := topo.Partition(32)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("seeded partition not deterministic: %v vs %v", first, second)
	}
	// A different seed moves at least one player.
	other := Topology{Shards: 4, Seed: 0xfedcba}.Partition(32)
	if fmt.Sprint(first) == fmt.Sprint(other) {
		t.Error("distinct seeds produced identical partitions")
	}
	// The shuffle spreads membership: with 32 players over 4 shards at
	// this seed, at least one shard must not be a contiguous range.
	contiguous := 0
	for _, members := range first {
		if members[len(members)-1]-members[0] == uint32(len(members)-1) {
			contiguous++
		}
	}
	if contiguous == len(first) {
		t.Error("seeded partition degenerated to contiguous ranges")
	}
}

func TestTopologyPartitionWeighted(t *testing.T) {
	topo := Topology{Shards: 2, Weights: []int{3, 1}}
	shards := topo.Partition(12)
	assertPartition(t, topo, 12, shards)
	if len(shards[0]) != 9 || len(shards[1]) != 3 {
		t.Errorf("weighted shard sizes %d/%d, want 9/3", len(shards[0]), len(shards[1]))
	}
}
