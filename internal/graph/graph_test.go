package graph

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"livenet/internal/sim"
)

func TestSigmoidRange(t *testing.T) {
	if err := quick.Check(func(u16 uint16) bool {
		u := float64(u16%1001) / 1000
		f := Sigmoid(u)
		// Mathematically f ∈ (1,2); in float64 the low end rounds to 1.
		return f >= 1 && f < 2
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoidShape(t *testing.T) {
	// Idle link ≈ 1, saturated ≈ 2, inflection at 80%.
	if f := Sigmoid(0); f > 1.001 {
		t.Fatalf("Sigmoid(0) = %v, want ~1", f)
	}
	if f := Sigmoid(1); f < 1.99 {
		t.Fatalf("Sigmoid(1) = %v, want ~2", f)
	}
	if f := Sigmoid(0.80); math.Abs(f-1.5) > 1e-9 {
		t.Fatalf("Sigmoid(0.8) = %v, want 1.5 at inflection", f)
	}
	if Sigmoid(0.9) <= Sigmoid(0.7) {
		t.Fatal("sigmoid should be increasing")
	}
}

func TestWeightEq2(t *testing.T) {
	g := New(2)
	g.SetLink(0, 1, 100*time.Millisecond, 0, 0)
	// No loss, idle: weight = RTT * ~1.
	w := g.Weight(0, 1)
	if w < 100 || w > 101 {
		t.Fatalf("idle lossless weight = %v, want ~100 ms", w)
	}
	// 100% loss doubles the expected RTT.
	g.SetLink(0, 1, 100*time.Millisecond, 1, 0)
	w = g.Weight(0, 1)
	if w < 200 || w > 202 {
		t.Fatalf("full-loss weight = %v, want ~200 ms", w)
	}
	// 10% loss: 0.1*200 + 0.9*100 = 110 ms.
	g.SetLink(0, 1, 100*time.Millisecond, 0.1, 0)
	w = g.Weight(0, 1)
	if w < 110 || w > 111.2 {
		t.Fatalf("10%%-loss weight = %v, want ~110 ms", w)
	}
}

func TestWeightUsesMaxUtil(t *testing.T) {
	g := New(2)
	g.SetLink(0, 1, 100*time.Millisecond, 0, 0.2)
	idle := g.Weight(0, 1)
	g.SetNodeUtil(1, 0.95) // endpoint hot even though link is cool
	hot := g.Weight(0, 1)
	if hot <= idle*1.5 {
		t.Fatalf("hot endpoint should dominate: idle=%v hot=%v", idle, hot)
	}
}

func TestWeightMissingLink(t *testing.T) {
	g := New(2)
	if !math.IsInf(g.Weight(0, 1), 1) {
		t.Fatal("missing link should weigh +Inf")
	}
}

func TestSetLinkUpdatesInPlace(t *testing.T) {
	g := New(2)
	g.SetLink(0, 1, 10*time.Millisecond, 0, 0)
	g.SetLink(0, 1, 20*time.Millisecond, 0.5, 0.5)
	if len(g.Neighbors(0)) != 1 {
		t.Fatalf("duplicate adjacency entries: %v", g.Neighbors(0))
	}
	if l := g.Link(0, 1); l.RTT != 20*time.Millisecond || l.Loss != 0.5 {
		t.Fatalf("update lost: %+v", l)
	}
}

func TestOverloadChecks(t *testing.T) {
	g := New(3)
	g.SetLink(0, 1, time.Millisecond, 0, 0.5)
	g.SetLink(1, 2, time.Millisecond, 0, 0.85)
	if g.LinkOverloaded(0, 1) {
		t.Fatal("0->1 at 50% should not be overloaded")
	}
	if !g.LinkOverloaded(1, 2) {
		t.Fatal("1->2 at 85% should be overloaded")
	}
	g.SetNodeUtil(0, 0.9)
	if !g.LinkOverloaded(0, 1) {
		t.Fatal("link with hot endpoint should count as overloaded")
	}
	if !g.PathOverloaded([]int{0, 1, 2}) {
		t.Fatal("path through hot node should be overloaded")
	}
	if g.PathOverloaded([]int{1, 2}) == false {
		// 1->2 util 0.85 >= 0.80
		t.Fatal("path with hot link should be overloaded")
	}
	if !g.LinkOverloaded(2, 0) {
		t.Fatal("missing link should be treated as overloaded")
	}
}

func TestPathRTT(t *testing.T) {
	g := New(3)
	g.SetLink(0, 1, 10*time.Millisecond, 0, 0)
	g.SetLink(1, 2, 15*time.Millisecond, 0, 0)
	if got := g.PathRTT([]int{0, 1, 2}); got != 25*time.Millisecond {
		t.Fatalf("PathRTT = %v", got)
	}
	if got := g.PathRTT([]int{0}); got != 0 {
		t.Fatalf("single-node path RTT = %v", got)
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	g.SetLink(0, 1, 10*time.Millisecond, 0.1, 0.2)
	g.SetNodeUtil(2, 0.7)
	c := g.Clone()
	g.SetLink(0, 1, 99*time.Millisecond, 0.9, 0.9)
	g.SetNodeUtil(2, 0.99)
	if c.Link(0, 1).RTT != 10*time.Millisecond {
		t.Fatal("clone shares link storage with original")
	}
	if c.NodeUtil(2) != 0.7 {
		t.Fatal("clone shares node utils with original")
	}
}

func TestNeighborWeightsMatchesWeight(t *testing.T) {
	g := New(8)
	rng := sim.NewSource(11).Stream("gw")
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && rng.Bernoulli(0.7) {
				g.SetLink(i, j, time.Duration(5+rng.Intn(80))*time.Millisecond,
					rng.Float64()*0.01, rng.Float64())
			}
		}
		g.SetNodeUtil(i, rng.Float64())
	}
	for i := 0; i < 8; i++ {
		nbrs, ws := g.NeighborWeights(i)
		if len(nbrs) != len(g.Neighbors(i)) {
			t.Fatalf("node %d: %d cached neighbors, want %d", i, len(nbrs), len(g.Neighbors(i)))
		}
		for idx, nb := range nbrs {
			if want := g.Weight(i, nb); ws[idx] != want {
				t.Fatalf("cached weight %d->%d = %v, want %v", i, nb, ws[idx], want)
			}
		}
	}
}

func TestNeighborWeightsInvalidation(t *testing.T) {
	g := New(3)
	g.SetLink(0, 1, 10*time.Millisecond, 0, 0)
	_, ws := g.NeighborWeights(0)
	before := ws[0]

	// Link update must invalidate the cached row.
	g.SetLink(0, 1, 40*time.Millisecond, 0, 0)
	_, ws = g.NeighborWeights(0)
	if ws[0] == before || ws[0] != g.Weight(0, 1) {
		t.Fatalf("row not rebuilt after SetLink: %v (want %v)", ws[0], g.Weight(0, 1))
	}

	// Node-utilization change affects other nodes' rows too (u is the max
	// of link and endpoint utilizations).
	before = ws[0]
	g.SetNodeUtil(1, 0.95)
	_, ws = g.NeighborWeights(0)
	if ws[0] <= before {
		t.Fatalf("endpoint util=0.95 should raise 0->1 weight: %v vs %v", ws[0], before)
	}
	if ws[0] != g.Weight(0, 1) {
		t.Fatalf("cache disagrees with Weight after SetNodeUtil")
	}
}

// randomGraph reports ~70 % of the pairs of an n-node graph, rows in a
// scrambled `to` order, with node load and a few failures.
func randomGraph(n int, seed int64) *Graph {
	g := New(n)
	rng := sim.NewSource(seed).Stream("frozen")
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			j := (k*5 + i) % n // 5 ∤ n below: a permutation, not ascending
			if i != j && rng.Bernoulli(0.7) {
				g.SetLink(i, j, time.Duration(5+rng.Intn(80))*time.Millisecond, rng.Float64()*0.01, rng.Float64())
			}
		}
		g.SetNodeUtil(i, rng.Float64())
	}
	g.SetNodeDown(3, true)
	g.SetLinkDown(1, (5+1)%n, true)
	return g
}

// sameWeights asserts a frozen view reads what a live graph reads, on
// every row in both directions and for every pair through Weight.
func sameWeights(t *testing.T, tag string, f *Frozen, g *Graph) {
	t.Helper()
	eq := func(a, b float64) bool { return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1)) }
	for i := 0; i < g.N; i++ {
		for dir, rows := range [2][2]func(int) ([]int, []float64){
			{f.NeighborWeights, g.NeighborWeights}, {f.InNeighborWeights, g.InNeighborWeights},
		} {
			fn, fw := rows[0](i)
			gn, gw := rows[1](i)
			if len(fn) != len(gn) {
				t.Fatalf("%s: node %d dir %d: %d frozen neighbours, %d live", tag, i, dir, len(fn), len(gn))
			}
			for k := range fn {
				if fn[k] != gn[k] || !eq(fw[k], gw[k]) {
					t.Fatalf("%s: node %d dir %d slot %d: frozen (%d, %v), live (%d, %v)", tag, i, dir, k, fn[k], fw[k], gn[k], gw[k])
				}
			}
		}
		for j := 0; j < g.N; j++ {
			if !eq(f.Weight(i, j), g.Weight(i, j)) {
				t.Fatalf("%s: Weight(%d,%d): frozen %v, live %v", tag, i, j, f.Weight(i, j), g.Weight(i, j))
			}
		}
	}
}

// TestFrozenMatchesLiveAndStaysPut: a frozen view reads exactly the
// weights of the graph it was taken from, and keeps reading them while
// that graph is mutated — metric updates, node state, and an insertion
// whose compaction replaces every CSR array the view shares.
func TestFrozenMatchesLiveAndStaysPut(t *testing.T) {
	const n = 12
	g := randomGraph(n, 5)
	f := g.Freeze(nil)
	f.MaterializeWeights()
	sameWeights(t, "fresh", f, g)

	// The reference for "stays put" is a second graph built the same way
	// and never touched again.
	still := randomGraph(n, 5)
	g.SetLink(0, 5, 999*time.Millisecond, 0.5, 0.9)
	g.SetNodeUtil(4, 0.99)
	g.SetNodeDown(3, false)
	g.SetNodeDown(7, true)
	sameWeights(t, "after metric updates", f, still)

	// New pairs land in the pending list; the next row read compacts them
	// into freshly allocated arrays.
	added := 0
	for i := 0; i < n && added < 5; i++ {
		for j := 0; j < n && added < 5; j++ {
			if i != j && g.Link(i, j) == nil {
				g.SetLink(i, j, 7*time.Millisecond, 0, 0)
				added++
			}
		}
	}
	if added == 0 {
		t.Fatal("the random graph left no pair to insert")
	}
	g.MaterializeWeights()
	sameWeights(t, "after a compaction", f, still)
	// Recycling the view: it now reads the graph as it is today.
	f = g.Freeze(f)
	f.MaterializeWeights()
	sameWeights(t, "refrozen into the same view", f, g)
}

// TestEachLinkVisitsInPairOrder pins the order GlobalView's sums are
// folded in: (from, to) ascending whatever the insertion order was.
func TestEachLinkVisitsInPairOrder(t *testing.T) {
	g := randomGraph(12, 9)
	var want [][2]int
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if g.Link(i, j) != nil {
				want = append(want, [2]int{i, j})
			}
		}
	}
	var got [][2]int
	g.EachLink(func(l *Link) { got = append(got, [2]int{l.From, l.To}) })
	if len(got) != len(want) {
		t.Fatalf("visited %d links, the graph holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("visit %d is %v, want %v", i, got[i], want[i])
		}
	}
}
