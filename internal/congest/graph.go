package congest

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// Graph is an immutable undirected graph on nodes 0..N-1.
type Graph struct {
	adj [][]int
}

// NewGraph builds a graph from an edge list; self-loops and duplicate
// edges are rejected.
func NewGraph(nodes int, edges [][2]int) (*Graph, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("congest: graph with %d nodes", nodes)
	}
	adj := make([][]int, nodes)
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= nodes || v < 0 || v >= nodes {
			return nil, fmt.Errorf("congest: edge (%d,%d) outside %d nodes", u, v, nodes)
		}
		if u == v {
			return nil, fmt.Errorf("congest: self-loop at %d", u)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("congest: duplicate edge (%d,%d)", u, v)
		}
		seen[key] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	return &Graph{adj: adj}, nil
}

// N returns the node count.
func (g *Graph) N() int { return len(g.adj) }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns a copy of u's adjacency list.
func (g *Graph) Neighbors(u int) []int {
	cp := make([]int, len(g.adj[u]))
	copy(cp, g.adj[u])
	return cp
}

// Edges returns the edge count.
func (g *Graph) Edges() int {
	total := 0
	for _, nbrs := range g.adj {
		total += len(nbrs)
	}
	return total / 2
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// BFS returns distances from root (-1 for unreachable) and BFS-tree
// parents (parent[root] = root; -1 for unreachable).
func (g *Graph) BFS(root int) (dist []int, parent []int) {
	n := g.N()
	dist = make([]int, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	if root < 0 || root >= n {
		return dist, parent
	}
	dist[root] = 0
	parent[root] = root
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return dist, parent
}

// Diameter returns the exact diameter (max eccentricity) of a connected
// graph, or -1 if disconnected. O(N * (N + E)).
func (g *Graph) Diameter() int {
	diam := 0
	for u := 0; u < g.N(); u++ {
		dist, _ := g.BFS(u)
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// topology is a Graph's adjacency in the form the simulator and the node
// programs index by: each neighbor list sorted ascending (the Graph's own
// lists keep insertion order, which BFS parents depend on), all of them
// flattened into one slice. Node u's neighbors are nbr[off[u]:off[u+1]];
// an index in that range is an edge slot, so per-edge state anywhere in
// the package is one flat slice indexed by slot (see nodeSlots). For the
// slot of u's edge to v, rev holds u's position in v's sorted list, which
// makes delivery along an edge a direct index. Per-edge bit sets (mail,
// owed messages) take ⌈deg/64⌉ words per node, node u's at
// [woff[u], woff[u+1]) of a flat word slice (see nodeWords). A topology
// is immutable: a Tester builds one and every worker's simulator and node
// programs share it read-only.
type topology struct {
	off  []int
	woff []int
	nbr  []int
	rev  []int
}

// newTopology sorts and flattens g's adjacency.
func newTopology(g *Graph) *topology {
	n := g.N()
	t := &topology{off: make([]int, n+1), woff: make([]int, n+1)}
	for u, adj := range g.adj {
		t.off[u+1] = t.off[u] + len(adj)
		t.woff[u+1] = t.woff[u] + (len(adj)+63)/64
	}
	t.nbr = make([]int, t.off[n])
	t.rev = make([]int, t.off[n])
	for u, adj := range g.adj {
		nbrs := nodeSlots(t, t.nbr, u)
		copy(nbrs, adj)
		slices.Sort(nbrs)
	}
	for u := 0; u < n; u++ {
		rev := nodeSlots(t, t.rev, u)
		for pos, v := range nodeSlots(t, t.nbr, u) {
			at, ok := slices.BinarySearch(nodeSlots(t, t.nbr, v), u)
			if !ok {
				// Graph edges are symmetric by construction; a miss here
				// would be a Graph invariant violation, not a protocol bug.
				panic(fmt.Sprintf("congest: edge %d-%d has no reverse entry", u, v))
			}
			rev[pos] = at
		}
	}
	return t
}

// n returns the node count.
func (t *topology) n() int { return len(t.off) - 1 }

// nodeSlots returns node u's part of a per-edge-slot slice, indexed by
// neighbor position. Its capacity ends at u's last slot, so no append
// can spill into the next node's part.
func nodeSlots[T any](t *topology, cells []T, u int) []T {
	lo, hi := t.off[u], t.off[u+1]
	return cells[lo:hi:hi]
}

// nodeWords returns node u's part of a per-edge bit-set slice: bit pos&63
// of word pos>>6 stands for the neighbor at position pos.
func nodeWords(t *topology, words []uint64, u int) []uint64 {
	lo, hi := t.woff[u], t.woff[u+1]
	return words[lo:hi:hi]
}

// words returns the length of a per-edge bit-set slice.
func (t *topology) words() int { return t.woff[len(t.woff)-1] }

// Builders.

// Path returns the path graph 0-1-...-(n-1).
func Path(n int) (*Graph, error) {
	edges := make([][2]int, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	return NewGraph(n, edges)
}

// Ring returns the cycle on n >= 3 nodes.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("congest: ring needs n >= 3, got %d", n)
	}
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return NewGraph(n, edges)
}

// Star returns the star with center 0.
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("congest: star needs n >= 2, got %d", n)
	}
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return NewGraph(n, edges)
}

// Complete returns K_n.
func Complete(n int) (*Graph, error) {
	edges := make([][2]int, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return NewGraph(n, edges)
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) (*Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("congest: grid %dx%d", rows, cols)
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return NewGraph(rows*cols, edges)
}

// RandomTree returns a uniformly random labelled tree on n nodes (random
// Prüfer sequence).
func RandomTree(n int, rng *rand.Rand) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("congest: tree with %d nodes", n)
	}
	if n == 1 {
		return NewGraph(1, nil)
	}
	if n == 2 {
		return NewGraph(2, [][2]int{{0, 1}})
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.IntN(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	// Standard linear-time decoding: ptr scans for the smallest available
	// leaf; a node freshly reduced to degree 1 below ptr short-circuits the
	// scan. Consumed leaves get degree 0 and are skipped forever.
	var edges [][2]int
	ptr := 0
	leaf := -1
	for _, v := range prufer {
		if leaf < 0 {
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
			ptr++
		}
		edges = append(edges, [2]int{leaf, v})
		degree[leaf] = 0
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			leaf = -1
		}
	}
	// Exactly two degree-1 nodes remain; join them.
	last := make([]int, 0, 2)
	for v := 0; v < n; v++ {
		if degree[v] == 1 {
			last = append(last, v)
		}
	}
	if len(last) != 2 {
		return nil, fmt.Errorf("congest: Prüfer decode left %d leaves", len(last))
	}
	edges = append(edges, [2]int{last[0], last[1]})
	return NewGraph(n, edges)
}
