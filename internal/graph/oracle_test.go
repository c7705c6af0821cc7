package graph

import (
	"fmt"
	"math"
)

// The graph tests' builder and their all-pairs reference: the product
// inserts validated edges with AddEdgeUnchecked and answers single-source
// queries with Dijkstra and RepairSSSP.

// AddEdge inserts an undirected edge between a and b. Negative weights and
// out-of-range nodes are rejected; parallel edges are allowed (shortest
// path computations simply use the cheaper one).
func (g *Graph) AddEdge(a, b int, weight float64) error {
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		return fmt.Errorf("graph: edge (%d, %d) out of range [0, %d)", a, b, g.n)
	}
	if a == b {
		return fmt.Errorf("graph: self-loop on node %d", a)
	}
	if weight < 0 || math.IsNaN(weight) {
		return fmt.Errorf("graph: invalid weight %v on edge (%d, %d)", weight, a, b)
	}
	g.AddEdgeUnchecked(a, b, weight)
	return nil
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
	for u, edges := range g.adj {
		for _, e := range edges {
			if e.Weight < ap.dist[u*n+e.To] {
				ap.dist[u*n+e.To] = e.Weight
				ap.next[u*n+e.To] = int32(e.To)
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
