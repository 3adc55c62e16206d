// Package graph models the CDN overlay as a directed weighted graph and
// implements the paper's link-weight abstraction (§4.3, Eq. 2–3):
//
//	W_AB = (ρ·2·RTT_AB + (1−ρ)·RTT_AB) · f(u_AB)
//	f(u)  = 1/(1+e^{α·(β−u)}) + 1
//
// where ρ is the link packet-loss rate and u_AB is the maximum of the link
// utilization and the two endpoint node utilizations. α=0.5 and β=80 (the
// sigmoid operates on percentage points — with utilization expressed as a
// fraction the exponent would be nearly constant over [0,1] and the term
// would never penalize hot links).
//
// Storage is a flat CSR (compressed sparse row) layout: one rowStart
// offset array plus parallel cols/links/weight arrays, so a 600-node mesh
// is a handful of contiguous allocations instead of a pointer-chasing
// map. New edges land in a pending list and are compacted into the CSR
// arrays lazily on the first row read; per-edge updates hit the edge
// index map and mutate in place. A reverse CSR (in-edges) is maintained
// for the Brain's bound checks, which run Dijkstra toward a node.
package graph

import (
	"math"
	"sort"
	"time"
)

// Default hyper-parameters from the paper's implementation.
const (
	Alpha = 0.5
	Beta  = 80.0 // percent
	// OverloadTarget is the pre-defined utilization target (fraction)
	// beyond which links/nodes are considered overloaded (§4.2).
	OverloadTarget = 0.80
)

// Link holds the Global Discovery metrics for one directed overlay link.
type Link struct {
	From, To int
	RTT      time.Duration
	Loss     float64 // packet loss rate in [0,1]
	Util     float64 // link utilization in [0,1]
	// Down marks a failed link: its weight is +Inf (so KSP never routes
	// through it) and the validity filter treats it like an overloaded
	// link. A fresh SetLink measurement clears it.
	Down bool
}

// Graph is a directed overlay graph over nodes 0..N-1.
// It is not safe for concurrent mutation; concurrent reads are safe once
// the CSR arrays and weight rows are materialized (see
// MaterializeWeights), which is how the Brain's parallel recompute reads
// one view from many workers.
type Graph struct {
	N int

	// CSR topology: edge slot e of node i lives at
	// rowStart[i] <= e < rowStart[i+1]; cols[e] is the out-neighbor and
	// links[e] the edge payload.
	rowStart []int32
	cols     []int
	links    []Link

	// eIdx maps (from,to) to an edge slot. Slots >= len(links) index the
	// pending list (inserted since the last compaction).
	eIdx    map[int64]int32
	pending []Link

	// Reverse CSR (in-edges), rebuilt at compaction: rCols[e] is an
	// in-neighbor of the row node and rSlot[e] the forward edge slot.
	rRowStart []int32
	rCols     []int
	rSlot     []int32

	nodeUtil []float64 // combined node load metric in [0,1] (§4.2 footnote)
	nodeDown []bool    // failed nodes: every incident link weighs +Inf

	// Per-edge weight cache: wRow[e] is the Eq. 2 weight of edge slot e,
	// valid for node i when wStamp[i] == version (any mutation expires
	// every row; a routing round that must outlive mutations reads a
	// Frozen view instead). rwStamp tracks per-node reverse rows in rW.
	version uint64
	wRow    []float64
	wStamp  []uint64
	rW      []float64
	rwStamp []uint64

	// matVer is the version both weight-row caches were last fully
	// materialized at: MaterializeWeights is an O(1) no-op until the next
	// effective mutation, so a batch caller (the Brain runs it before
	// every epoch fan-out and every shard of the federation repeats it)
	// pays the O(E) sweep once per version instead of once per call.
	matVer uint64
}

func key(from, to int) int64 { return int64(from)<<32 | int64(uint32(to)) }

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	return &Graph{
		N:        n,
		rowStart: make([]int32, n+1),
		// The reverse CSR starts as valid empty rows (rebuilt at every
		// compaction): reverse sweeps are legal even before the first
		// link report lands.
		rRowStart: make([]int32, n+1),
		eIdx:      make(map[int64]int32),
		nodeUtil:  make([]float64, n),
		nodeDown:  make([]bool, n),
		version:   1,
		wStamp:    make([]uint64, n),
		rwStamp:   make([]uint64, n),
	}
}

// Version is a counter bumped on every effective mutation (a report that
// changes nothing does not advance it). The Brain stamps its caches —
// weight rows, SSSP trees, filtered path decisions — with it.
func (g *Graph) Version() uint64 { return g.version }

// BumpVersion advances the version without changing any metric. Callers
// that filter decisions on state held OUTSIDE the graph (e.g. the
// Brain's draining set) bump it so memoized decisions expire.
func (g *Graph) BumpVersion() { g.version++ }

// Edges returns the number of directed links (including pending inserts).
func (g *Graph) Edges() int { return len(g.links) + len(g.pending) }

// SetLink creates or updates the directed link from→to. A fresh
// measurement proves the link carries traffic, so it also clears Down.
// It reports whether the call changed anything (metrics or existence).
func (g *Graph) SetLink(from, to int, rtt time.Duration, loss, util float64) bool {
	k := key(from, to)
	if slot, ok := g.eIdx[k]; ok {
		l := g.linkAt(slot)
		if l.RTT == rtt && l.Loss == loss && l.Util == util && !l.Down {
			return false
		}
		g.version++
		l.RTT, l.Loss, l.Util = rtt, loss, util
		l.Down = false
		return true
	}
	g.version++
	g.eIdx[k] = int32(len(g.links) + len(g.pending))
	g.pending = append(g.pending, Link{From: from, To: to, RTT: rtt, Loss: loss, Util: util})
	return true
}

// linkAt resolves an edge slot to its payload (compacted or pending).
func (g *Graph) linkAt(slot int32) *Link {
	if int(slot) < len(g.links) {
		return &g.links[slot]
	}
	return &g.pending[int(slot)-len(g.links)]
}

// compact folds pending edge inserts into the CSR arrays (counting sort
// by source node; insertion order within a node is preserved, so the
// adjacency order — and therefore every downstream tie-break — is
// identical to the incremental-append layout it replaces).
func (g *Graph) compact() {
	if len(g.pending) == 0 {
		return
	}
	n := g.N
	oldRow, oldLinks := g.rowStart, g.links
	deg := make([]int32, n+1)
	for i := 0; i < n; i++ {
		deg[i] = oldRow[i+1] - oldRow[i]
	}
	for i := range g.pending {
		deg[g.pending[i].From]++
	}
	e := len(oldLinks) + len(g.pending)
	rowStart := make([]int32, n+1)
	for i := 0; i < n; i++ {
		rowStart[i+1] = rowStart[i] + deg[i]
	}
	cols := make([]int, e)
	links := make([]Link, e)
	next := make([]int32, n)
	copy(next, rowStart[:n])
	emit := func(l Link) {
		at := next[l.From]
		next[l.From]++
		cols[at] = l.To
		links[at] = l
		g.eIdx[key(l.From, l.To)] = at
	}
	for i := 0; i < n; i++ {
		for s := oldRow[i]; s < oldRow[i+1]; s++ {
			emit(oldLinks[s])
		}
	}
	for i := range g.pending {
		emit(g.pending[i])
	}
	g.rowStart, g.cols, g.links = rowStart, cols, links
	g.pending = g.pending[:0]
	g.wRow = make([]float64, e)
	g.rW = make([]float64, e)
	for i := range g.wStamp {
		g.wStamp[i] = 0
		g.rwStamp[i] = 0
	}
	g.buildReverse()
}

// buildReverse rebuilds the reverse CSR from the forward arrays.
func (g *Graph) buildReverse() {
	n, e := g.N, len(g.links)
	deg := make([]int32, n)
	for _, to := range g.cols {
		deg[to]++
	}
	rRow := make([]int32, n+1)
	for i := 0; i < n; i++ {
		rRow[i+1] = rRow[i] + deg[i]
	}
	rCols := make([]int, e)
	rSlot := make([]int32, e)
	next := make([]int32, n)
	copy(next, rRow[:n])
	for i := 0; i < n; i++ {
		for s := g.rowStart[i]; s < g.rowStart[i+1]; s++ {
			to := g.cols[s]
			at := next[to]
			next[to]++
			rCols[at] = i
			rSlot[at] = s
		}
	}
	g.rRowStart, g.rCols, g.rSlot = rRow, rCols, rSlot
}

// Link returns the directed link from→to, or nil. The pointer stays
// valid until the next topology insertion (a SetLink on a new pair).
func (g *Graph) Link(from, to int) *Link {
	slot, ok := g.eIdx[key(from, to)]
	if !ok {
		return nil
	}
	return g.linkAt(slot)
}

// Neighbors returns the out-neighbors of node id.
func (g *Graph) Neighbors(id int) []int {
	g.compact()
	return g.cols[g.rowStart[id]:g.rowStart[id+1]]
}

// SetNodeUtil records the combined load metric for a node; it reports
// whether the value changed.
func (g *Graph) SetNodeUtil(id int, u float64) bool {
	if g.nodeUtil[id] == u {
		return false
	}
	g.version++
	g.nodeUtil[id] = u
	return true
}

// NodeUtil returns the combined load metric for a node.
func (g *Graph) NodeUtil(id int) float64 { return g.nodeUtil[id] }

// SetLinkDown marks/clears failure state on the directed link from→to;
// it reports whether the state changed.
func (g *Graph) SetLinkDown(from, to int, down bool) bool {
	l := g.Link(from, to)
	if l == nil || l.Down == down {
		return false
	}
	g.version++
	l.Down = down
	return true
}

// SetNodeDown marks/clears failure state on a node; while down, every
// link incident to it weighs +Inf and the validity filter rejects it.
// It reports whether the state changed.
func (g *Graph) SetNodeDown(id int, down bool) bool {
	if g.nodeDown[id] == down {
		return false
	}
	g.version++
	g.nodeDown[id] = down
	return true
}

// NodeDown reports a node's failure state.
func (g *Graph) NodeDown(id int) bool { return g.nodeDown[id] }

// Sigmoid is f(u) from Eq. 3, with u in [0,1] (converted internally to
// percentage points). It ranges over (1,2): ≈1 for idle links and ≈2 for
// saturated ones, with the inflection at β=80%.
func Sigmoid(u float64) float64 {
	return 1/(1+math.Exp(Alpha*(Beta-u*100))) + 1
}

// Weight returns W_AB in milliseconds per Eq. 2, or +Inf if the link does
// not exist. The first factor is the expected RTT assuming a lost packet
// is recovered on the second attempt.
func (g *Graph) Weight(from, to int) float64 {
	slot, ok := g.eIdx[key(from, to)]
	if !ok {
		return math.Inf(1)
	}
	return g.linkWeight(g.linkAt(slot))
}

func (g *Graph) linkWeight(l *Link) float64 {
	return eq2Weight(l, g.nodeUtil, g.nodeDown)
}

// eq2Weight is Eq. 2 on one link and its endpoints' node state.
func eq2Weight(l *Link, nodeUtil []float64, nodeDown []bool) float64 {
	if l.Down || nodeDown[l.From] || nodeDown[l.To] {
		return math.Inf(1)
	}
	rttMs := float64(l.RTT) / float64(time.Millisecond)
	expected := l.Loss*2*rttMs + (1-l.Loss)*rttMs
	u := math.Max(l.Util, math.Max(nodeUtil[l.From], nodeUtil[l.To]))
	return expected * Sigmoid(u)
}

// NeighborWeights returns id's out-neighbors and their Eq. 2 weights from
// the flat per-node weight row, rebuilding the row if the graph changed
// since it was last computed. The returned slices are owned by the graph
// and valid until the next mutation; callers must not retain or modify
// them.
func (g *Graph) NeighborWeights(id int) ([]int, []float64) {
	g.compact()
	a, b := g.rowStart[id], g.rowStart[id+1]
	if g.wStamp[id] != g.version {
		for s := a; s < b; s++ {
			g.wRow[s] = g.linkWeight(&g.links[s])
		}
		g.wStamp[id] = g.version
	}
	return g.cols[a:b], g.wRow[a:b]
}

// InNeighborWeights is the reverse-edge analogue of NeighborWeights: the
// in-neighbors of id and the weight of each incoming edge. The Brain's
// incremental revalidation runs Dijkstra toward a node on it. Same
// ownership rules as NeighborWeights.
func (g *Graph) InNeighborWeights(id int) ([]int, []float64) {
	g.compact()
	a, b := g.rRowStart[id], g.rRowStart[id+1]
	if g.rwStamp[id] != g.version {
		for s := a; s < b; s++ {
			g.rW[s] = g.linkWeight(&g.links[g.rSlot[s]])
		}
		g.rwStamp[id] = g.version
	}
	return g.rCols[a:b], g.rW[a:b]
}

// MaterializeWeights brings every forward and reverse weight row up to
// date, so that subsequent NeighborWeights / InNeighborWeights calls are
// pure reads. The Brain calls it once before fanning batch work out
// across goroutines: workers then share the graph without
// synchronization.
func (g *Graph) MaterializeWeights() {
	if g.matVer == g.version && len(g.pending) == 0 {
		return
	}
	g.compact()
	for id := 0; id < g.N; id++ {
		g.NeighborWeights(id)
		g.InNeighborWeights(id)
	}
	g.matVer = g.version
}

// LinkOverloaded reports whether the from→to link or either endpoint is at
// or beyond the overload target.
func (g *Graph) LinkOverloaded(from, to int) bool {
	l := g.Link(from, to)
	if l == nil || l.Down {
		return true
	}
	return l.Util >= OverloadTarget ||
		g.nodeUtil[from] >= OverloadTarget ||
		g.nodeUtil[to] >= OverloadTarget
}

// NodeOverloaded reports whether the node is at or beyond the target.
// A down node is unusable a fortiori.
func (g *Graph) NodeOverloaded(id int) bool {
	return g.nodeDown[id] || g.nodeUtil[id] >= OverloadTarget
}

// PathOverloaded reports whether any link or node along the path is
// overloaded. The path is a node sequence including both endpoints.
func (g *Graph) PathOverloaded(path []int) bool {
	for i, n := range path {
		if g.NodeOverloaded(n) {
			return true
		}
		if i+1 < len(path) && g.LinkOverloaded(n, path[i+1]) {
			return true
		}
	}
	return false
}

// PathRTT sums the link RTTs along a path (Inf if a link is missing).
func (g *Graph) PathRTT(path []int) time.Duration {
	var total time.Duration
	for i := 0; i+1 < len(path); i++ {
		l := g.Link(path[i], path[i+1])
		if l == nil {
			return time.Duration(math.MaxInt64)
		}
		total += l.RTT
	}
	return total
}

// Frozen is an immutable view of a graph's Eq. 2 weights at one version:
// what a routing round computes on while reports keep mutating the graph
// it was taken from. It shares the CSR topology arrays with that graph —
// compact and buildReverse only ever publish freshly allocated arrays, so
// a later compaction leaves a held view untouched — and owns a copy of
// what the weights depend on (link metrics, node load and failure state).
// Any number of goroutines may read it.
type Frozen struct {
	rowStart  []int32
	cols      []int
	rRowStart []int32
	rCols     []int
	rSlot     []int32

	links    []Link
	nodeUtil []float64
	nodeDown []bool

	// The weight rows are not computed by Freeze, which runs under the
	// owner's lock and is flat copies and nothing else: at 63k links the
	// copies take ≈0.3 ms, the 126k Eq. 2 evaluations ≈4.
	ready bool
	w, rw []float64
}

// Freeze returns the immutable view of the graph as it is now. It costs
// one copy of the link payloads; no weight is computed here —
// MaterializeWeights does that, and needs no access to the graph. A
// non-nil reuse is overwritten and returned: its buffers are recycled, so
// a caller that freezes round after round allocates only when the graph
// grew. Nobody may still be reading a view that is handed back.
func (g *Graph) Freeze(reuse *Frozen) *Frozen {
	g.compact()
	f := reuse
	if f == nil {
		f = new(Frozen)
	}
	f.rowStart, f.cols = g.rowStart, g.cols
	f.rRowStart, f.rCols, f.rSlot = g.rRowStart, g.rCols, g.rSlot
	f.links = append(f.links[:0], g.links...)
	f.nodeUtil = append(f.nodeUtil[:0], g.nodeUtil...)
	f.nodeDown = append(f.nodeDown[:0], g.nodeDown...)
	f.ready = false
	return f
}

// MaterializeWeights computes both weight rows. Call it once, from one
// goroutine, before the reads: they are then pure reads that any number
// of goroutines may share (the idiom of Graph.MaterializeWeights).
func (f *Frozen) MaterializeWeights() {
	if f.ready {
		return
	}
	e := len(f.links)
	if cap(f.w) < e {
		f.w, f.rw = make([]float64, e), make([]float64, e)
	}
	f.w, f.rw = f.w[:e], f.rw[:e]
	for s := range f.links {
		f.w[s] = eq2Weight(&f.links[s], f.nodeUtil, f.nodeDown)
	}
	for s, slot := range f.rSlot {
		f.rw[s] = f.w[slot]
	}
	f.ready = true
}

// mustBeReady turns a read of stale recycled weights into a crash.
func (f *Frozen) mustBeReady() {
	if !f.ready {
		panic("graph: Frozen read before MaterializeWeights")
	}
}

// NeighborWeights is Graph.NeighborWeights on the frozen state; the
// returned slices are shared and must not be modified.
func (f *Frozen) NeighborWeights(id int) ([]int, []float64) {
	f.mustBeReady()
	a, b := f.rowStart[id], f.rowStart[id+1]
	return f.cols[a:b], f.w[a:b]
}

// InNeighborWeights is Graph.InNeighborWeights on the frozen state.
func (f *Frozen) InNeighborWeights(id int) ([]int, []float64) {
	f.mustBeReady()
	a, b := f.rRowStart[id], f.rRowStart[id+1]
	return f.rCols[a:b], f.rw[a:b]
}

// Weight is Graph.Weight on the frozen state (+Inf for a link the graph
// did not hold when it was frozen). It scans from's row: a round asks it
// once per dirty link, not per relaxation.
func (f *Frozen) Weight(from, to int) float64 {
	nbrs, w := f.NeighborWeights(from)
	for i, nb := range nbrs {
		if nb == to {
			return w[i]
		}
	}
	return math.Inf(1)
}

// Clone returns a deep copy, for callers that want a mutable view of
// their own (the evaluation harness and tests, through Brain.View). It
// copies the edge index map, 6–8 ms at 63k links: nothing on a serving
// or routing-round path calls it — a round reads a Frozen view instead.
// CSR arrays copy as flat memmoves.
func (g *Graph) Clone() *Graph {
	g.compact()
	c := New(g.N)
	c.version = g.version
	copy(c.nodeUtil, g.nodeUtil)
	copy(c.nodeDown, g.nodeDown)
	c.rowStart = append([]int32(nil), g.rowStart...)
	c.cols = append([]int(nil), g.cols...)
	c.links = append([]Link(nil), g.links...)
	c.rRowStart = append([]int32(nil), g.rRowStart...)
	c.rCols = append([]int(nil), g.rCols...)
	c.rSlot = append([]int32(nil), g.rSlot...)
	c.wRow = make([]float64, len(g.links))
	c.rW = make([]float64, len(g.links))
	for k, v := range g.eIdx {
		c.eIdx[k] = v
	}
	return c
}

// EachLink calls fn on every link in (from, to) order — the order of a
// scan over all node pairs, so a sum folded over it is bit-identical to
// one — in one pass over the CSR rows instead of N² index probes. A row
// whose links were not inserted in `to` order is visited through a sorted
// scratch copy of its slots. fn must not insert links.
func (g *Graph) EachLink(fn func(l *Link)) {
	g.compact()
	var slots []int32
	for i := 0; i < g.N; i++ {
		a, b := g.rowStart[i], g.rowStart[i+1]
		if sort.IntsAreSorted(g.cols[a:b]) {
			for s := a; s < b; s++ {
				fn(&g.links[s])
			}
			continue
		}
		slots = slots[:0]
		for s := a; s < b; s++ {
			slots = append(slots, s)
		}
		sort.Slice(slots, func(x, y int) bool { return g.cols[slots[x]] < g.cols[slots[y]] })
		for _, s := range slots {
			fn(&g.links[s])
		}
	}
}
