// Arena is the reusable scratch state behind the Dijkstra/Yen core: the
// dist/prev/visited arrays, the priority queue, and the spur-mask and
// path-assembly buffers a routing epoch needs, allocated once and reused
// across every (producer, consumer) pair a worker computes. The Brain
// pins one Arena per runner worker, so a from-scratch epoch does zero
// steady-state allocations in the search itself — only the returned
// paths (which the PIB retains) are fresh.
//
// Two devices make the reuse safe without O(n) clearing:
//
//   - Generation stamps: dist/prev entries are valid only when their
//     stamp equals the arena's current generation, so "reset" is a
//     counter increment, not a memset. The spur-node mask works the same
//     way.
//
//   - A monotone radix heap keyed on math.Float64bits(dist). For
//     non-negative floats the IEEE-754 bit pattern is order-preserving,
//     and Dijkstra only ever pushes keys >= the last popped minimum, so
//     the bucket invariant holds with full float precision — this is the
//     bucket-queue family (Dial/radix) without the quantization error a
//     Dial bucket array would impose on fractional link weights.
//
// An Arena is not safe for concurrent use; give each goroutine its own.
package ksp

import (
	"math"
	"math/bits"
)

// rhEntry is one pending (key, node) pair in the radix heap.
type rhEntry struct {
	key  uint64
	node int32
}

// radixHeap is a monotone priority queue: keys must be pushed in no less
// than the minimum most recently popped (Dijkstra guarantees this — a
// relaxation pushes dist[u]+w >= dist[u]). Bucket i holds entries whose
// key first differs from `last` at bit i-1; bucket 0 holds keys equal to
// last. Pop refills bucket 0 from the lowest nonempty bucket, advancing
// last to that bucket's minimum. Stale entries (nodes already settled)
// are skipped lazily by the caller.
type radixHeap struct {
	last    uint64
	n       int
	buckets [65][]rhEntry
}

func (h *radixHeap) reset() {
	h.last = 0
	h.n = 0
	for i := range h.buckets {
		h.buckets[i] = h.buckets[i][:0]
	}
}

func (h *radixHeap) push(key uint64, node int32) {
	i := bits.Len64(key ^ h.last)
	h.buckets[i] = append(h.buckets[i], rhEntry{key: key, node: node})
	h.n++
}

// pop removes and returns a minimum-key entry. Among equal keys the most
// recently pushed pops first — a fixed, deterministic order (the binary
// heap this replaced was also deterministic, merely with a different
// tie permutation).
func (h *radixHeap) pop() (uint64, int32) {
	if len(h.buckets[0]) == 0 {
		h.refill()
	}
	b := h.buckets[0]
	e := b[len(b)-1]
	h.buckets[0] = b[:len(b)-1]
	h.n--
	return e.key, e.node
}

// refill advances last to the smallest pending key and redistributes
// that key's bucket. Every redistributed entry lands in a strictly lower
// bucket (all entries of bucket i share the bits of `last` above i-1, so
// against the new last — the bucket's own minimum — they first differ
// below i-1), which is what bounds total redistribution work.
func (h *radixHeap) refill() {
	i := 1
	for len(h.buckets[i]) == 0 {
		i++
	}
	b := h.buckets[i]
	min := b[0].key
	for _, e := range b[1:] {
		if e.key < min {
			min = e.key
		}
	}
	h.last = min
	for _, e := range b {
		j := bits.Len64(e.key ^ min)
		h.buckets[j] = append(h.buckets[j], e)
	}
	h.buckets[i] = b[:0]
}

// Arena holds the pooled scratch for one worker. The zero value is ready
// to use; arrays grow to the largest n seen and stay.
type Arena struct {
	dist    []float64
	prev    []int32
	stamp   []uint32 // dist/prev valid when stamp[i] == gen
	settled []uint32 // node popped (final) when settled[i] == gen
	gen     uint32

	heap radixHeap

	// Yen spur mask: nodes of the root prefix are removed via stamps;
	// the removed edges all originate at the spur node, so they are a
	// short target list instead of a map.
	mask     []uint32
	maskGen  uint32
	spurFrom int
	spurTo   []int

	// Path assembly: rbuf is the read-back scratch, store the backing
	// for accepted/candidate node sequences (content is immutable once
	// committed, so store growth relocating the backing array is safe),
	// paths/cand the working lists of one Yen call.
	rbuf  []int
	store []int
	paths []Path
	cand  []Path
}

// grow sizes the per-node arrays for an n-node graph. Generations are
// deliberately left untouched: fresh zeroed arrays under any generation
// read as "nothing stamped", because every consumer advances its
// generation (nextGen / nextMaskGen) before stamping — resetting them
// here would instead wipe stamps a caller placed before the first run
// (the Yen spur mask is stamped before the search that grows the arena).
func (a *Arena) grow(n int) {
	if len(a.dist) >= n {
		return
	}
	a.dist = make([]float64, n)
	a.prev = make([]int32, n)
	a.stamp = make([]uint32, n)
	a.settled = make([]uint32, n)
	a.mask = make([]uint32, n)
}

func (a *Arena) nextGen() {
	a.gen++
	if a.gen == 0 { // wrapped: stale stamps could collide with a new run
		clear(a.stamp)
		clear(a.settled)
		a.gen = 1
	}
}

func (a *Arena) nextMaskGen() {
	a.maskGen++
	if a.maskGen == 0 {
		clear(a.mask)
		a.maskGen = 1
	}
}

// run settles nodes from src in nondecreasing distance order; if
// stop >= 0 it returns as soon as stop is settled (exact — Dijkstra
// settles in distance order). masked applies the Yen spur mask: nodes
// stamped in a.mask are unreachable, and the spurFrom→spurTo edges are
// cut. Weights must be non-negative (+Inf edges are skipped).
//
// A non-nil h turns the search into A*: h[v] must be a consistent lower
// bound on the remaining distance v→stop (the Brain passes exact
// reverse-tree distances on the unmasked graph, which lower-bound every
// masked subgraph). Keys become g+h, so the frontier beelines for stop
// instead of flooding a distance ball, and nodes that cannot reach stop
// at all (h = +Inf) are pruned outright — this is what makes a Yen spur
// search settle a handful of nodes instead of half the fleet.
func (a *Arena) run(n, src, stop int, nw NeighborWeightsFunc, masked bool, h []float64) {
	a.grow(n)
	a.nextGen()
	a.heap.reset()
	g := a.gen
	a.dist[src] = 0
	a.prev[src] = -1
	a.stamp[src] = g
	if h != nil && math.IsInf(h[src], 1) {
		return // src provably cannot reach stop
	}
	a.heap.push(0, int32(src))
	for a.heap.n > 0 {
		_, u32 := a.heap.pop()
		u := int(u32)
		if a.settled[u] == g {
			continue
		}
		a.settled[u] = g
		if u == stop {
			return
		}
		du := a.dist[u]
		nbrs, ws := nw(u)
		for i, nb := range nbrs {
			if a.settled[nb] == g {
				continue
			}
			w := ws[i]
			if math.IsInf(w, 1) {
				continue
			}
			if masked {
				if a.mask[nb] == a.maskGen {
					continue
				}
				if u == a.spurFrom && a.spurBlocked(nb) {
					continue
				}
			}
			if nd := du + w; a.stamp[nb] != g || nd < a.dist[nb] {
				key := nd
				if h != nil {
					hn := h[nb]
					if math.IsInf(hn, 1) {
						continue
					}
					key = nd + hn
				}
				a.dist[nb] = nd
				a.prev[nb] = int32(u)
				a.stamp[nb] = g
				a.heap.push(math.Float64bits(key), int32(nb))
			}
		}
	}
}

func (a *Arena) spurBlocked(nb int) bool {
	for _, t := range a.spurTo {
		if t == nb {
			return true
		}
	}
	return false
}

// pathAppend appends the settled path src→dst of the last run to out.
// On failure out is returned unchanged.
func (a *Arena) pathAppend(src, dst int, out []int) ([]int, bool) {
	g := a.gen
	if dst < 0 || dst >= len(a.stamp) || a.stamp[dst] != g {
		return out, false
	}
	base := len(out)
	for at := dst; at != -1; at = int(a.prev[at]) {
		out = append(out, at)
	}
	reverseInts(out[base:])
	if out[base] != src {
		return out[:base], false
	}
	return out, true
}

// commit copies nodes into the arena's store and returns the stored
// (immutable, capacity-clamped) slice.
func (a *Arena) commit(nodes []int) []int {
	base := len(a.store)
	a.store = append(a.store, nodes...)
	return a.store[base:len(a.store):len(a.store)]
}

// SSSP computes the single-source shortest-path tree from src. The
// returned Tree owns freshly allocated arrays (callers cache trees
// across an epoch); only the search scratch is pooled.
func (a *Arena) SSSP(n, src int, nw NeighborWeightsFunc) Tree {
	a.run(n, src, -1, nw, false, nil)
	dist := make([]float64, n)
	prev := make([]int, n)
	g := a.gen
	for i := 0; i < n; i++ {
		if a.stamp[i] == g {
			dist[i] = a.dist[i]
			prev[i] = int(a.prev[i])
		} else {
			dist[i] = math.Inf(1)
			prev[i] = -1
		}
	}
	return Tree{Src: src, Dist: dist, Prev: prev}
}

// DijkstraDist computes the distance array from src (prev discarded) —
// what the Brain's invalidation probes retain.
func (a *Arena) DijkstraDist(n, src int, nw NeighborWeightsFunc) []float64 {
	a.run(n, src, -1, nw, false, nil)
	dist := make([]float64, n)
	g := a.gen
	for i := 0; i < n; i++ {
		if a.stamp[i] == g {
			dist[i] = a.dist[i]
		} else {
			dist[i] = math.Inf(1)
		}
	}
	return dist
}

// ShortestPath returns the single shortest path src→dst.
func (a *Arena) ShortestPath(n, src, dst int, nw NeighborWeightsFunc) (Path, bool) {
	a.run(n, src, dst, nw, false, nil)
	a.rbuf = a.rbuf[:0]
	nodes, ok := a.pathAppend(src, dst, a.rbuf)
	a.rbuf = nodes[:0]
	if !ok {
		return Path{}, false
	}
	out := make([]int, len(nodes))
	copy(out, nodes)
	return Path{Nodes: out, Cost: a.dist[dst]}, true
}

// YenNW returns up to k loopless shortest paths src→dst (Yen's
// algorithm), running every search on the arena's pooled scratch.
func (a *Arena) YenNW(n, src, dst, k int, nw NeighborWeightsFunc) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	a.run(n, src, dst, nw, false, nil)
	a.rbuf = a.rbuf[:0]
	nodes, ok := a.pathAppend(src, dst, a.rbuf)
	a.rbuf = nodes[:0]
	if !ok {
		return nil
	}
	return a.yenFrom(n, src, dst, k, nw, nodes, a.dist[dst], nil)
}

// YenFromTree is YenNW with the first (shortest) path read from a
// precomputed SSSP tree instead of running a fresh Dijkstra. The tree
// must have been built with SSSP(n, src, nw) against the same weights;
// under that condition the output is identical to YenNW — the deviation
// loop only depends on the first path, and the tree's path IS the
// Dijkstra path. This lets the Brain pay one Dijkstra per producer per
// epoch instead of one per (producer, consumer) pair.
func (a *Arena) YenFromTree(n, src, dst, k int, nw NeighborWeightsFunc, t Tree) []Path {
	return a.YenFromTreeH(n, src, dst, k, nw, t, nil)
}

// YenFromTreeH is YenFromTree with an optional A* heuristic for the spur
// searches: h[v] must lower-bound the v→dst distance under the same
// weights nw serves (exact reverse-tree distances are both consistent
// and maximally tight). nil h degrades to plain Dijkstra spur searches.
func (a *Arena) YenFromTreeH(n, src, dst, k int, nw NeighborWeightsFunc, t Tree, h []float64) []Path {
	if k <= 0 || src == dst {
		return nil
	}
	if dst < 0 || dst >= len(t.Dist) || math.IsInf(t.Dist[dst], 1) {
		return nil
	}
	a.rbuf = a.rbuf[:0]
	base := len(a.rbuf)
	nodes := a.rbuf
	for at := dst; at != -1; at = t.Prev[at] {
		nodes = append(nodes, at)
	}
	reverseInts(nodes[base:])
	a.rbuf = nodes[:0]
	if nodes[base] != t.Src {
		return nil
	}
	return a.yenFrom(n, src, dst, k, nw, nodes, t.Dist[dst], h)
}

// yenFrom runs Yen's spur-deviation loop seeded with the known shortest
// path. It produces the same path sequence as the pre-arena sort-based
// implementation: selecting the earliest minimum-cost candidate equals
// taking the front of a stable sort (equal-cost candidates keep their
// generation order in both), and candidate costs are summed edge-by-edge
// in path order exactly as before, so the float arithmetic is
// bit-identical.
func (a *Arena) yenFrom(n, src, dst, k int, nw NeighborWeightsFunc, firstNodes []int, firstCost float64, h []float64) []Path {
	a.grow(n) // size the mask before stamping it (run would grow too late)
	a.store = a.store[:0]
	a.paths = a.paths[:0]
	a.cand = a.cand[:0]
	a.paths = append(a.paths, Path{Nodes: a.commit(firstNodes), Cost: firstCost})

	for len(a.paths) < k {
		last := a.paths[len(a.paths)-1]
		// Each node of the previous shortest path except the final one is
		// a potential spur node.
		for i := 0; i < len(last.Nodes)-1; i++ {
			spur := last.Nodes[i]
			rootNodes := last.Nodes[:i+1]

			// Cut the outgoing edge used by every accepted path sharing
			// this root — they all leave from the spur node itself.
			a.spurFrom = spur
			a.spurTo = a.spurTo[:0]
			for _, p := range a.paths {
				if len(p.Nodes) > i && equalPrefix(p.Nodes, rootNodes) {
					a.spurTo = append(a.spurTo, p.Nodes[i+1])
				}
			}
			// Nodes of the root (except the spur) are removed to keep
			// paths loopless.
			a.nextMaskGen()
			for _, rn := range rootNodes[:i] {
				a.mask[rn] = a.maskGen
			}

			a.run(n, spur, dst, nw, true, h)
			a.rbuf = a.rbuf[:0]
			total := append(a.rbuf, rootNodes[:i]...)
			total, ok := a.pathAppend(spur, dst, total)
			a.rbuf = total[:0]
			if !ok {
				continue
			}
			cand := Path{Nodes: total, Cost: pathCostNW(total, nw)}
			if !containsPath(a.paths, cand) && !containsPath(a.cand, cand) {
				a.cand = append(a.cand, Path{Nodes: a.commit(total), Cost: cand.Cost})
			}
		}
		if len(a.cand) == 0 {
			break
		}
		// Earliest minimum: equal-cost candidates resolve by generation
		// order — the winner among ties is a function of the accepted
		// prefix and the weights alone, which the Brain's incremental
		// invalidation and the parallel≡serial guarantee both lean on.
		best := 0
		for j := 1; j < len(a.cand); j++ {
			if a.cand[j].Cost < a.cand[best].Cost {
				best = j
			}
		}
		a.paths = append(a.paths, a.cand[best])
		a.cand = append(a.cand[:best], a.cand[best+1:]...)
	}

	// Copy out: callers retain the result (the PIB caches it), so it must
	// not alias the arena's store.
	out := make([]Path, len(a.paths))
	for i, p := range a.paths {
		nodes := make([]int, len(p.Nodes))
		copy(nodes, p.Nodes)
		out[i] = Path{Nodes: nodes, Cost: p.Cost}
	}
	return out
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
