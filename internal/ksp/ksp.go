// Package ksp implements Dijkstra's shortest path and Yen's K-shortest
// loopless paths algorithm — the "KSP" step of the Streaming Brain's
// Global Routing module (§4.3). The Brain computes k=3 candidate paths per
// node pair and then filters constraint violations.
//
// The search core runs on reusable Arenas (see arena.go): generation-
// stamped scratch arrays plus a monotone radix heap, so the steady state
// of a routing epoch performs no allocations inside the search. Every
// search is an Arena method over a NeighborWeightsFunc; callers own their
// arenas (the Brain pins one per recompute worker, a one-shot probe uses
// a zero Arena).
package ksp

import "math"

// NeighborWeightsFunc returns a node's out-neighbors together with the
// weight of each outgoing edge (w[i] is the weight to nbrs[i]). This is
// the allocation-free expansion interface the Dijkstra core runs on:
// graph.Graph serves it from per-neighbor weight slices cached per Brain
// epoch, so the inner loop pays no per-edge map lookup. The returned
// slices are only valid until the next call.
type NeighborWeightsFunc func(id int) (nbrs []int, w []float64)

// Path is a node sequence (src first, dst last) with its total cost.
type Path struct {
	Nodes []int
	Cost  float64
}

// Hops returns the number of edges in the path.
func (p Path) Hops() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes) - 1
}

// Equal reports whether two paths visit the same node sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Nodes) != len(q.Nodes) {
		return false
	}
	for i := range p.Nodes {
		if p.Nodes[i] != q.Nodes[i] {
			return false
		}
	}
	return true
}

// Tree is a shortest-path tree rooted at Src: the result of one forward
// Dijkstra sweep, from which Arena.YenFromTree reads the shortest path
// to any destination without further search. The Brain caches one Tree
// per producer per routing epoch and derives each consumer's first
// candidate path from it, paying the Dijkstra once instead of once per
// (src,dst) pair.
type Tree struct {
	Src  int
	Dist []float64
	Prev []int
}

func equalPrefix(p, prefix []int) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

// pathCostNW sums edge weights along nodes via the expansion interface,
// edge by edge in path order (candidate costs must fold in the same
// float order regardless of which search produced the path).
func pathCostNW(nodes []int, nw NeighborWeightsFunc) float64 {
	var c float64
	for i := 0; i+1 < len(nodes); i++ {
		nbrs, ws := nw(nodes[i])
		wt := math.Inf(1)
		for j, nb := range nbrs {
			if nb == nodes[i+1] {
				wt = ws[j]
				break
			}
		}
		c += wt
	}
	return c
}

func containsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if p.Equal(q) {
			return true
		}
	}
	return false
}
