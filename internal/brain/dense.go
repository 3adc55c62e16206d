package brain

import (
	"math"

	"livenet/internal/ksp"
)

// Dense-mesh routing: on LiveNet's flat CDN the overlay is a full mesh,
// so the ≤3-hop k-shortest paths can be found by direct enumeration of
// 0/1/2-relay paths over a dense weight matrix instead of running Yen's
// algorithm. This is what makes the 20-day macro simulation affordable
// (millions of lookups). The enumeration keeps only the k best candidates
// with a streaming insertion (k is 3), so each pair costs O(N²) compares
// and no allocation beyond the result.
//
// Semantics note: Yen per the paper computes the global top-k and then
// filters out >3-hop paths, so it can return fewer than k; the dense
// enumerator searches within the hop constraint, so it returns the same
// or better candidates (asserted by TestDenseMatchesYenOnFullMesh).

// denseHops is the longest path the enumerator considers (two relays).
const denseHops = 3

// denseLocked reports whether Global Routing runs on the enumerator: when
// the view holds all N·(N−1) directed links and the hop bound is within
// the enumerator's reach. The Brain observes this itself — a flat-CDN
// full mesh selects the enumerator, a capped-degree overlay or a
// federation shard's regional view stays on arena Yen. Links never leave
// the view (a failed link stays, marked down, at +Inf), so once a full
// mesh has reported the choice does not flip back.
func (b *Brain) denseLocked() bool {
	return b.view.Edges() == b.cfg.N*(b.cfg.N-1) && b.cfg.MaxHops <= denseHops
}

// DenseRouting reports which engine the next path computation uses.
func (b *Brain) DenseRouting() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.denseLocked()
}

// denseWeightsLocked (re)builds the dense weight matrix for the current
// graph version.
func (b *Brain) denseWeightsLocked() []float64 {
	if b.denseVersion == b.view.Version() && b.denseW != nil {
		return b.denseW
	}
	n := b.cfg.N
	if cap(b.denseW) < n*n {
		b.denseW = make([]float64, n*n)
	}
	b.denseW = b.denseW[:n*n]
	inf := math.Inf(1)
	for i := range b.denseW {
		b.denseW[i] = inf
	}
	// Scatter from the graph's per-neighbor weight cache: no per-cell map
	// lookup, and absent edges stay +Inf.
	for i := 0; i < n; i++ {
		row := b.denseW[i*n : (i+1)*n]
		nbrs, ws := b.view.NeighborWeights(i)
		for idx, nb := range nbrs {
			if nb != i {
				row[nb] = ws[idx]
			}
		}
	}
	b.denseVersion = b.view.Version()
	return b.denseW
}

// denseTopK is a fixed-size best-candidates accumulator.
type denseTopK struct {
	k     int
	cost  [8]float64
	relay [8][2]int // r1, r2 (-1 when unused)
	n     int
}

func (t *denseTopK) push(cost float64, r1, r2 int) {
	if t.n == t.k && cost >= t.cost[t.n-1] {
		return
	}
	i := t.n
	if i < t.k {
		t.n++
	} else {
		i = t.k - 1
	}
	for i > 0 && t.cost[i-1] > cost {
		t.cost[i] = t.cost[i-1]
		t.relay[i] = t.relay[i-1]
		i--
	}
	t.cost[i] = cost
	t.relay[i] = [2]int{r1, r2}
}

// computePathsDense enumerates the k best ≤3-hop loopless paths.
func (b *Brain) computePathsDense(src, dst int) []ksp.Path {
	n := b.cfg.N
	w := b.denseWeightsLocked()
	k := b.cfg.K
	if k > 8 {
		k = 8
	}
	top := denseTopK{k: k}

	if c := w[src*n+dst]; !math.IsInf(c, 1) {
		top.push(c, -1, -1)
	}
	for r := 0; r < n; r++ {
		if r == src || r == dst {
			continue
		}
		if c := w[src*n+r] + w[r*n+dst]; !math.IsInf(c, 1) {
			top.push(c, r, -1)
		}
	}
	for r1 := 0; r1 < n; r1++ {
		if r1 == src || r1 == dst {
			continue
		}
		base := w[src*n+r1]
		if math.IsInf(base, 1) {
			continue
		}
		// Prune: a 2-relay path cannot beat the current worst kept
		// candidate if its first leg alone already exceeds it.
		if top.n == top.k && base >= top.cost[top.n-1] {
			continue
		}
		row := w[r1*n:]
		for r2 := 0; r2 < n; r2++ {
			if r2 == src || r2 == dst || r2 == r1 {
				continue
			}
			c := base + row[r2] + w[r2*n+dst]
			if !math.IsInf(c, 1) {
				top.push(c, r1, r2)
			}
		}
	}

	out := make([]ksp.Path, 0, top.n)
	for i := 0; i < top.n; i++ {
		nodes := make([]int, 0, 4)
		nodes = append(nodes, src)
		if top.relay[i][0] >= 0 {
			nodes = append(nodes, top.relay[i][0])
		}
		if top.relay[i][1] >= 0 {
			nodes = append(nodes, top.relay[i][1])
		}
		nodes = append(nodes, dst)
		out = append(out, ksp.Path{Nodes: nodes, Cost: top.cost[i]})
	}
	return out
}
