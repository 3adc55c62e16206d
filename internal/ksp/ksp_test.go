package ksp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"livenet/internal/sim"
)

// gridWorld builds a small weighted digraph in neighbor-weights form.
type gridWorld struct {
	adj [][]int
	ws  [][]float64
}

func newGrid(n int) *gridWorld {
	return &gridWorld{adj: make([][]int, n), ws: make([][]float64, n)}
}

func (g *gridWorld) edge(a, b int, w float64) {
	g.adj[a] = append(g.adj[a], b)
	g.ws[a] = append(g.ws[a], w)
}

func (g *gridWorld) biedge(a, b int, w float64) {
	g.edge(a, b, w)
	g.edge(b, a, w)
}

func (g *gridWorld) nw(id int) ([]int, []float64) { return g.adj[id], g.ws[id] }

func TestDijkstraSimple(t *testing.T) {
	g := newGrid(4)
	g.edge(0, 1, 1)
	g.edge(1, 2, 1)
	g.edge(0, 2, 5)
	g.edge(2, 3, 1)
	tree := new(Arena).SSSP(4, 0, g.nw)
	dist, prev := tree.Dist, tree.Prev
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %v, want 2 (via node 1)", dist[2])
	}
	if prev[2] != 1 {
		t.Fatalf("prev[2] = %v, want 1", prev[2])
	}
	if dist[3] != 3 {
		t.Fatalf("dist[3] = %v", dist[3])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := newGrid(3)
	g.edge(0, 1, 1)
	tree := new(Arena).SSSP(3, 0, g.nw)
	dist, prev := tree.Dist, tree.Prev
	if !math.IsInf(dist[2], 1) || prev[2] != -1 {
		t.Fatalf("node 2 should be unreachable: dist=%v prev=%v", dist[2], prev[2])
	}
	if _, ok := new(Arena).ShortestPath(3, 0, 2, g.nw); ok {
		t.Fatal("ShortestPath to unreachable node should fail")
	}
}

func TestShortestPathEndpoints(t *testing.T) {
	g := newGrid(4)
	g.edge(0, 1, 1)
	g.edge(1, 3, 1)
	p, ok := new(Arena).ShortestPath(4, 0, 3, g.nw)
	if !ok || p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 3 {
		t.Fatalf("path = %+v ok=%v", p, ok)
	}
	if p.Hops() != 2 || p.Cost != 2 {
		t.Fatalf("hops=%d cost=%v", p.Hops(), p.Cost)
	}
}

func TestYenClassic(t *testing.T) {
	// Classic Yen example graph.
	g := newGrid(6)
	// C=0 D=1 E=2 F=3 G=4 H=5
	g.edge(0, 1, 3)
	g.edge(0, 2, 2)
	g.edge(1, 3, 4)
	g.edge(2, 1, 1)
	g.edge(2, 3, 2)
	g.edge(2, 4, 3)
	g.edge(3, 4, 2)
	g.edge(3, 5, 1)
	g.edge(4, 5, 2)
	paths := new(Arena).YenNW(6, 0, 5, 3, g.nw)
	if len(paths) != 3 {
		t.Fatalf("got %d paths", len(paths))
	}
	if paths[0].Cost != 5 { // C-E-F-H = 2+2+1
		t.Fatalf("1st path cost = %v, want 5: %+v", paths[0].Cost, paths[0])
	}
	if paths[1].Cost != 7 || paths[2].Cost != 8 {
		t.Fatalf("2nd/3rd costs = %v/%v, want 7/8", paths[1].Cost, paths[2].Cost)
	}
}

func TestYenNondecreasing(t *testing.T) {
	rng := sim.NewSource(1).Stream("yen")
	if err := quick.Check(func(seed uint8) bool {
		n := 12
		g := newGrid(n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && rng.Bernoulli(0.4) {
					g.edge(a, b, 1+rng.Float64()*10)
				}
			}
		}
		paths := new(Arena).YenNW(n, 0, n-1, 4, g.nw)
		prev := 0.0
		for _, p := range paths {
			if p.Cost < prev-1e-9 {
				return false
			}
			prev = p.Cost
			// Loopless check.
			seen := map[int]bool{}
			for _, node := range p.Nodes {
				if seen[node] {
					return false
				}
				seen[node] = true
			}
			if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != n-1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestYenDistinctPaths(t *testing.T) {
	g := newGrid(5)
	g.biedge(0, 1, 1)
	g.biedge(1, 4, 1)
	g.biedge(0, 2, 2)
	g.biedge(2, 4, 2)
	g.biedge(0, 3, 3)
	g.biedge(3, 4, 3)
	paths := new(Arena).YenNW(5, 0, 4, 3, g.nw)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if paths[i].Equal(paths[j]) {
				t.Fatalf("duplicate paths at %d,%d: %+v", i, j, paths)
			}
		}
	}
}

func TestYenFewerThanK(t *testing.T) {
	g := newGrid(3)
	g.edge(0, 1, 1)
	g.edge(1, 2, 1)
	paths := new(Arena).YenNW(3, 0, 2, 5, g.nw)
	if len(paths) != 1 {
		t.Fatalf("only one path exists, got %d", len(paths))
	}
}

func TestYenSameSrcDst(t *testing.T) {
	g := newGrid(2)
	g.edge(0, 1, 1)
	if paths := new(Arena).YenNW(2, 0, 0, 3, g.nw); paths != nil {
		t.Fatalf("src==dst should return nil, got %+v", paths)
	}
}

func TestYenKZero(t *testing.T) {
	g := newGrid(2)
	g.edge(0, 1, 1)
	if paths := new(Arena).YenNW(2, 0, 1, 0, g.nw); paths != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestYenOnFullMesh(t *testing.T) {
	// The Brain's actual use case: full mesh with metric weights, k=3.
	rng := sim.NewSource(2).Stream("mesh")
	n := 20
	g := newGrid(n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b {
				g.edge(a, b, 5+rng.Float64()*100)
			}
		}
	}
	paths := new(Arena).YenNW(n, 3, 17, 3, g.nw)
	if len(paths) != 3 {
		t.Fatalf("full mesh should yield 3 paths, got %d", len(paths))
	}
	// Direct link exists, so the best path has at most a couple of hops,
	// and alternatives should genuinely differ.
	if paths[0].Cost > paths[1].Cost || paths[1].Cost > paths[2].Cost {
		t.Fatal("costs not ordered")
	}
}

func TestPathEqual(t *testing.T) {
	a := Path{Nodes: []int{1, 2, 3}}
	b := Path{Nodes: []int{1, 2, 3}}
	c := Path{Nodes: []int{1, 2}}
	d := Path{Nodes: []int{1, 2, 4}}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal misbehaves")
	}
}

// randomNW builds a random weighted digraph in neighbor-weights form.
func randomNW(n int, seed int64) NeighborWeightsFunc {
	rng := sim.NewSource(seed).Stream("kspnw")
	g := newGrid(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Bernoulli(0.6) {
				g.edge(i, j, 1+rng.Float64()*99)
			}
		}
	}
	return g.nw
}

// refYen is the in-test reference the arena engine is pinned against:
// textbook Yen over a quadratic array Dijkstra, sharing no code with the
// Arena. Costs fold edge by edge in path order and ties resolve to the
// earliest candidate, the two conventions the arena engine documents.
func refYen(n, src, dst, k int, nw NeighborWeightsFunc) []Path {
	weight := func(a, b int) float64 {
		nbrs, ws := nw(a)
		for i, nb := range nbrs {
			if nb == b {
				return ws[i]
			}
		}
		return math.Inf(1)
	}
	cost := func(nodes []int) float64 {
		var c float64
		for i := 0; i+1 < len(nodes); i++ {
			c += weight(nodes[i], nodes[i+1])
		}
		return c
	}
	// shortest runs Dijkstra from→dst avoiding banned nodes and the
	// banned out-edges of from.
	shortest := func(from int, bannedNode map[int]bool, bannedNext map[int]bool) []int {
		dist := make([]float64, n)
		prev := make([]int, n)
		done := make([]bool, n)
		for i := range dist {
			dist[i], prev[i] = math.Inf(1), -1
		}
		dist[from] = 0
		for {
			u := -1
			for i := 0; i < n; i++ {
				if !done[i] && !math.IsInf(dist[i], 1) && (u < 0 || dist[i] < dist[u]) {
					u = i
				}
			}
			if u < 0 || u == dst {
				break
			}
			done[u] = true
			nbrs, ws := nw(u)
			for i, v := range nbrs {
				if bannedNode[v] || (u == from && bannedNext[v]) {
					continue
				}
				if d := dist[u] + ws[i]; d < dist[v] {
					dist[v], prev[v] = d, u
				}
			}
		}
		if math.IsInf(dist[dst], 1) {
			return nil
		}
		var nodes []int
		for at := dst; at != -1; at = prev[at] {
			nodes = append(nodes, at)
		}
		reverseInts(nodes)
		return nodes
	}
	if k <= 0 || src == dst {
		return nil
	}
	first := shortest(src, nil, nil)
	if first == nil {
		return nil
	}
	paths := []Path{{Nodes: first, Cost: cost(first)}}
	var cand []Path
	for len(paths) < k {
		last := paths[len(paths)-1].Nodes
		for i := 0; i+1 < len(last); i++ {
			root := last[:i+1]
			bannedNext := map[int]bool{}
			for _, p := range paths {
				if len(p.Nodes) > i && equalPrefix(p.Nodes, root) {
					bannedNext[p.Nodes[i+1]] = true
				}
			}
			bannedNode := map[int]bool{}
			for _, rn := range root[:i] {
				bannedNode[rn] = true
			}
			spur := shortest(last[i], bannedNode, bannedNext)
			if spur == nil {
				continue
			}
			total := append(append([]int{}, root[:i]...), spur...)
			c := Path{Nodes: total, Cost: cost(total)}
			if !containsPath(paths, c) && !containsPath(cand, c) {
				cand = append(cand, c)
			}
		}
		if len(cand) == 0 {
			break
		}
		best := 0
		for j := range cand {
			if cand[j].Cost < cand[best].Cost {
				best = j
			}
		}
		paths = append(paths, cand[best])
		cand = append(cand[:best], cand[best+1:]...)
	}
	return paths
}

func samePaths(t *testing.T, what string, want, got []Path) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d paths", what, len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) || want[i].Cost != got[i].Cost {
			t.Fatalf("%s path %d: %+v vs %+v", what, i, want[i], got[i])
		}
	}
}

func TestYenFromTreeMatchesYenNW(t *testing.T) {
	const n = 16
	var a Arena
	for seed := int64(1); seed <= 5; seed++ {
		nw := randomNW(n, seed)
		for src := 0; src < n; src += 3 {
			tree := a.SSSP(n, src, nw)
			for dst := 0; dst < n; dst++ {
				if dst == src {
					continue
				}
				want := a.YenNW(n, src, dst, 4, nw)
				samePaths(t, fmt.Sprintf("seed %d %d→%d", seed, src, dst), want, a.YenFromTree(n, src, dst, 4, nw, tree))
			}
		}
	}
}

// TestFreshArenaYenFromTree is the regression pin for the grow/maskGen
// interaction: a brand-new (never-grown) Arena must produce the
// reference Yen answer, and so must a warm one. The original bug stamped
// the spur mask before the first search grew the scratch arrays; grow()
// then reset the mask generation, every spur node read as masked, and
// all deviation paths silently vanished.
func TestFreshArenaYenFromTree(t *testing.T) {
	const n = 16
	var warm Arena
	for seed := int64(1); seed <= 5; seed++ {
		nw := randomNW(n, seed)
		for src := 0; src < n; src += 3 {
			tree := warm.SSSP(n, src, nw)
			for dst := 0; dst < n; dst += 2 {
				if dst == src {
					continue
				}
				what := fmt.Sprintf("seed %d %d→%d", seed, src, dst)
				want := refYen(n, src, dst, 4, nw)
				samePaths(t, what+" fresh", want, new(Arena).YenFromTree(n, src, dst, 4, nw, tree))
				samePaths(t, what+" warm", want, warm.YenNW(n, src, dst, 4, nw))
			}
		}
	}
}
