package graph

import (
	"fmt"
	"math"
)

// The graph tests' builder and their all-pairs reference: the product
// builds graphs from validated edge lists with Build and answers
// single-source queries with Dijkstra and RepairSSSP.

// testEdge is one undirected edge of a test topology.
type testEdge struct {
	a, b int
	w    float64
}

// edgeList collects the edges of an n-node test graph, checked the way a
// product caller checks its edges before they reach Build.
type edgeList struct {
	n     int
	edges []testEdge
}

// AddEdge appends an undirected edge between a and b. Negative weights and
// out-of-range nodes are rejected; parallel edges are allowed (shortest
// path computations simply use the cheaper one).
func (l *edgeList) AddEdge(a, b int, weight float64) error {
	if a < 0 || a >= l.n || b < 0 || b >= l.n {
		return fmt.Errorf("graph: edge (%d, %d) out of range [0, %d)", a, b, l.n)
	}
	if a == b {
		return fmt.Errorf("graph: self-loop on node %d", a)
	}
	if weight < 0 || math.IsNaN(weight) {
		return fmt.Errorf("graph: invalid weight %v on edge (%d, %d)", weight, a, b)
	}
	l.edges = append(l.edges, testEdge{a, b, weight})
	return nil
}

// Graph builds the list.
func (l *edgeList) Graph() *Graph { return build(l.n, l.edges) }

// build materializes an edge list as is.
func build(n int, edges []testEdge) *Graph {
	g := new(Graph)
	g.Build(n, len(edges), func(i int) (int, int, float64) {
		return edges[i].a, edges[i].b, edges[i].w
	})
	return g
}

// liveEntries counts the directed entries of g's image, two per edge.
func liveEntries(g *Graph) int {
	k := 0
	for v := 0; v < g.n; v++ {
		k += int(g.rowEnd[v] - g.rowStart[v])
	}
	return k
}

// AllPairs is the result of a Floyd-Warshall run: a dense N×N distance
// matrix with next-hop information for path reconstruction.
type AllPairs struct {
	n    int
	dist []float64
	next []int32
}

// FloydWarshall computes all-pairs shortest paths in O(N^3) time and
// O(N^2) space. It is preferable over N Dijkstra runs for dense queries on
// small to medium graphs (such as a single constellation shell subset).
func (g *Graph) FloydWarshall() *AllPairs {
	n := g.n
	ap := &AllPairs{
		n:    n,
		dist: make([]float64, n*n),
		next: make([]int32, n*n),
	}
	for i := range ap.dist {
		ap.dist[i] = Inf
		ap.next[i] = -1
	}
	for i := 0; i < n; i++ {
		ap.dist[i*n+i] = 0
		ap.next[i*n+i] = int32(i)
	}
	for u := 0; u < n; u++ {
		for idx := g.rowStart[u]; idx < g.rowEnd[u]; idx++ {
			to, w := int(g.edgeTo[idx]), g.weight[idx]
			if w < ap.dist[u*n+to] {
				ap.dist[u*n+to] = w
				ap.next[u*n+to] = int32(to)
			}
		}
	}
	for k := 0; k < n; k++ {
		rowK := ap.dist[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := ap.dist[i*n+k]
			if math.IsInf(dik, 1) {
				continue
			}
			rowI := ap.dist[i*n : (i+1)*n]
			nextI := ap.next[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				if nd := dik + rowK[j]; nd < rowI[j] {
					rowI[j] = nd
					nextI[j] = ap.next[i*n+k]
				}
			}
		}
	}
	return ap
}

// Dist returns the shortest distance between a and b, Inf if unreachable.
func (ap *AllPairs) Dist(a, b int) float64 {
	if a < 0 || a >= ap.n || b < 0 || b >= ap.n {
		return Inf
	}
	return ap.dist[a*ap.n+b]
}

// Path reconstructs a shortest path between a and b, inclusive. It returns
// nil if b is unreachable from a.
func (ap *AllPairs) Path(a, b int) []int {
	if a < 0 || a >= ap.n || b < 0 || b >= ap.n || ap.next[a*ap.n+b] == -1 {
		return nil
	}
	path := []int{a}
	for a != b {
		a = int(ap.next[a*ap.n+b])
		path = append(path, a)
	}
	return path
}
