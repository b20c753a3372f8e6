// Package topology provides the graph substrate for the reproduction: an
// undirected weighted multigraph type, the random connected-graph generator
// used by the paper's Figure 2 experiments ("500 different 50-node graphs"
// per node degree), Dijkstra shortest paths, and tree utilities shared by the
// tree-quality analyses in internal/trees and the simulator wiring in
// internal/scenario.
package topology

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Graph is an undirected weighted graph over nodes 0..N-1. Edges are stored
// once and referenced from both endpoints' adjacency lists.
type Graph struct {
	n     int
	edges []Edge
	adj   [][]int // node -> indexes into edges
}

// Edge is an undirected link between A and B with a positive Delay weight.
type Edge struct {
	A, B  int
	Delay int64
}

// Other returns the endpoint of e that is not node v.
func (e Edge) Other(v int) int {
	if v == e.A {
		return e.B
	}
	return e.A
}

// New creates an empty graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// M returns the edge count.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns edge i.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// AddEdge appends an undirected edge and returns its index.
func (g *Graph) AddEdge(a, b int, delay int64) int {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		panic(fmt.Sprintf("topology: edge (%d,%d) out of range for %d nodes", a, b, g.n))
	}
	if a == b {
		panic("topology: self-loop")
	}
	if delay <= 0 {
		panic("topology: non-positive delay")
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{A: a, B: b, Delay: delay})
	g.adj[a] = append(g.adj[a], idx)
	g.adj[b] = append(g.adj[b], idx)
	return idx
}

// HasEdge reports whether at least one edge joins a and b.
func (g *Graph) HasEdge(a, b int) bool {
	for _, ei := range g.adj[a] {
		if g.edges[ei].Other(a) == b {
			return true
		}
	}
	return false
}

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// AvgDegree returns the mean node degree 2M/N.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(len(g.edges)) / float64(g.n)
}

// Incident returns the indexes of edges incident to v. Callers must not
// modify the returned slice.
func (g *Graph) Incident(v int) []int { return g.adj[v] }

// Neighbors returns the distinct neighbors of v in ascending order.
func (g *Graph) Neighbors(v int) []int {
	seen := map[int]bool{}
	var out []int
	for _, ei := range g.adj[v] {
		u := g.edges[ei].Other(v)
		if !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	sort.Ints(out)
	return out
}

// Connected reports whether the graph is connected (true for N<=1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.adj[v] {
			u := g.edges[ei].Other(v)
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.n
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, e := range g.edges {
		c.AddEdge(e.A, e.B, e.Delay)
	}
	return c
}

// GenConfig parameterizes random graph generation.
type GenConfig struct {
	Nodes  int
	Degree float64 // target average node degree (2M/N)
	// MinDelay/MaxDelay bound per-edge delays, drawn uniformly. Both 1 for
	// unit (hop-count) metrics, which is the Figure 2 default.
	MinDelay, MaxDelay int64
}

// Random generates a connected random graph with the requested average node
// degree, the topology model behind the paper's Figure 2 ("randomly
// generated 50-node networks", "each node degree between three and eight").
//
// Construction: a uniform random spanning tree (random-walk style attachment
// over a shuffled node order) guarantees connectivity, then additional
// distinct random edges are added until the edge count reaches
// round(N*Degree/2). Parallel edges and self-loops are never produced.
func Random(cfg GenConfig, rng *rand.Rand) *Graph {
	if cfg.Nodes <= 0 {
		panic("topology: Nodes must be positive")
	}
	if cfg.MinDelay <= 0 {
		cfg.MinDelay = 1
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	n := cfg.Nodes
	target := int(float64(n)*cfg.Degree/2 + 0.5)
	if min := n - 1; target < min {
		target = min
	}
	if max := n * (n - 1) / 2; target > max {
		target = max
	}
	g := New(n)
	delay := func() int64 {
		if cfg.MaxDelay == cfg.MinDelay {
			return cfg.MinDelay
		}
		return cfg.MinDelay + rng.Int63n(cfg.MaxDelay-cfg.MinDelay+1)
	}
	// Spanning tree over a shuffled order: node i attaches to a uniformly
	// chosen earlier node.
	order := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(order[i], order[rng.Intn(i)], delay())
	}
	// Extra edges, rejection-sampled to stay simple (no parallels).
	for g.M() < target {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || g.HasEdge(a, b) {
			continue
		}
		g.AddEdge(a, b, delay())
	}
	return g
}

// PickDistinct selects k distinct nodes uniformly at random, used to choose
// the random group memberships of Figure 2.
func PickDistinct(n, k int, rng *rand.Rand) []int {
	if k > n {
		panic("topology: cannot pick more nodes than exist")
	}
	perm := rng.Perm(n)
	out := append([]int(nil), perm[:k]...)
	sort.Ints(out)
	return out
}

// WriteEdgeList renders the graph in the textual edge-list form cmd/topogen
// emits: a comment header, then one "a b delay" line per edge.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# nodes=%d edges=%d\n", g.n, len(g.edges)); err != nil {
		return err
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(w, "%d %d %d\n", e.A, e.B, e.Delay); err != nil {
			return err
		}
	}
	return nil
}

// MaxEdgeListNode bounds the node indexes ParseEdgeList accepts. The node
// count is derived from the largest index, so an unbounded index would let
// one short line demand an arbitrarily large adjacency table (or overflow
// the count); a million routers is two orders of magnitude beyond the
// largest internet the experiments build.
const MaxEdgeListNode = 1<<20 - 1

// ParseEdgeList reads the edge-list form back: lines of "a b delay" (delay
// optional, default 1), '#' comments and blank lines ignored. The node
// count is 1 + the largest node index seen; indexes above MaxEdgeListNode
// are rejected.
func ParseEdgeList(r io.Reader) (*Graph, error) {
	type edge struct {
		a, b int
		d    int64
	}
	var edges []edge
	maxNode := -1
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("topology: line %d: want 'a b [delay]', got %q", line, text)
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: bad node %q", line, fields[0])
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: bad node %q", line, fields[1])
		}
		d := int64(1)
		if len(fields) == 3 {
			d, err = strconv.ParseInt(fields[2], 10, 64)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("topology: line %d: bad delay %q", line, fields[2])
			}
		}
		if a < 0 || b < 0 || a == b || a > MaxEdgeListNode || b > MaxEdgeListNode {
			return nil, fmt.Errorf("topology: line %d: invalid edge %d-%d", line, a, b)
		}
		edges = append(edges, edge{a, b, d})
		if a > maxNode {
			maxNode = a
		}
		if b > maxNode {
			maxNode = b
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := New(maxNode + 1)
	for _, e := range edges {
		g.AddEdge(e.a, e.b, e.d)
	}
	return g, nil
}
