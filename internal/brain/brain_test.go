package brain

import (
	"math"
	"testing"
	"time"

	"livenet/internal/geo"
	"livenet/internal/ksp"
	"livenet/internal/sim"
)

// fullMesh builds a Brain over a synthetic world with a full-mesh view.
func fullMesh(t *testing.T, n int, lastResort []int) (*Brain, *geo.World) {
	t.Helper()
	rng := sim.NewSource(1).Stream("geo")
	cfg := geo.DefaultConfig()
	cfg.NumSites = n
	w := geo.Build(cfg, rng)
	b := New(Config{N: n, LastResort: lastResort})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				b.ReportLink(i, j, w.RTT(i, j), w.BaseLoss(i, j), 0.1)
			}
		}
		b.ReportNodeLoad(i, 0.2)
	}
	return b, w
}

func TestLookupReturnsKOrderedPaths(t *testing.T) {
	b, w := fullMesh(t, 16, nil)
	b.RegisterStream(1, 2)
	paths, err := b.Lookup(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want k=3", len(paths))
	}
	for i, p := range paths {
		if p[0] != 2 || p[len(p)-1] != 11 {
			t.Fatalf("path %d endpoints wrong: %v", i, p)
		}
		if hops := len(p) - 1; hops > DefaultMaxHops {
			t.Fatalf("path %d exceeds max hops: %v", i, p)
		}
	}
	// Preference ordering: nondecreasing weighted cost ≈ nondecreasing RTT
	// on an evenly loaded mesh. At minimum, the best path should not be
	// slower than the direct link.
	direct := w.RTT(2, 11)
	var bestRTT time.Duration
	for i := 0; i+1 < len(paths[0]); i++ {
		bestRTT += w.RTT(paths[0][i], paths[0][i+1])
	}
	if bestRTT > direct {
		t.Fatalf("best path RTT %v worse than direct %v", bestRTT, direct)
	}
}

func TestLookupSameNodeZeroHops(t *testing.T) {
	b, _ := fullMesh(t, 8, nil)
	b.RegisterStream(5, 4)
	paths, err := b.Lookup(5, 4)
	if err != nil || len(paths) != 1 || len(paths[0]) != 1 || paths[0][0] != 4 {
		t.Fatalf("paths = %v err = %v", paths, err)
	}
}

func TestOverloadFiltering(t *testing.T) {
	b, _ := fullMesh(t, 16, nil)
	b.RegisterStream(1, 0)
	paths, _ := b.Lookup(1, 9)
	if len(paths) == 0 {
		t.Fatal("no initial paths")
	}
	// Overload a relay used by the best path (if it has one).
	var victim int = -1
	for _, p := range paths {
		if len(p) > 2 {
			victim = p[1]
			break
		}
	}
	if victim == -1 {
		// All direct: overload the consumer-side link instead by loading
		// an arbitrary middle node; then just assert alarms count.
		victim = 5
	}
	b.OverloadAlarm(victim, 0.95)
	paths2, _ := b.Lookup(1, 9)
	for _, p := range paths2 {
		for _, n := range p[1 : len(p)-1] {
			if n == victim {
				t.Fatalf("overloaded node %d still used in %v", victim, p)
			}
		}
	}
	if b.Metrics().OverloadAlarms != 1 {
		t.Fatalf("alarms = %d", b.Metrics().OverloadAlarms)
	}
}

func TestLastResortPath(t *testing.T) {
	b, _ := fullMesh(t, 12, []int{10, 11})
	b.RegisterStream(1, 0)
	// Overload everything except producer, consumer and the reserved
	// last-resort nodes: every normal path is invalid.
	for i := 1; i < 10; i++ {
		if i != 3 {
			b.OverloadAlarm(i, 0.99)
		}
	}
	// Also the direct link.
	b.LinkOverloadAlarm(0, 3, 0.99)
	paths, err := b.Lookup(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 3 {
		t.Fatalf("want one 2-hop last-resort path, got %v", paths)
	}
	mid := paths[0][1]
	if mid != 10 && mid != 11 {
		t.Fatalf("last-resort relay = %d, want a reserved node", mid)
	}
	if b.Metrics().LastResortUsed != 1 {
		t.Fatalf("LastResortUsed = %d", b.Metrics().LastResortUsed)
	}
}

func TestPIBCachingAndEpoch(t *testing.T) {
	b, _ := fullMesh(t, 10, nil)
	b.RegisterStream(1, 0)
	b.Lookup(1, 5)
	b.Lookup(1, 5)
	m := b.Metrics()
	if m.PIBMisses != 1 || m.PIBHits != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", m.PIBHits, m.PIBMisses)
	}
	// An epoch advance with no metric changes since the entry was computed
	// is a no-op: the cached entry provably recomputes to itself.
	b.AdvanceEpoch()
	b.Lookup(1, 5)
	m = b.Metrics()
	if m.PIBMisses != 1 || m.PIBHits != 2 {
		t.Fatalf("quiet epoch advance must keep the PIB: hits=%d misses=%d", m.PIBHits, m.PIBMisses)
	}
	// A changed measurement on the pair's path takes effect at the next
	// epoch: the entry is invalidated and the lookup recomputes.
	b.ReportLink(0, 5, 500*time.Millisecond, 0.2, 0.1)
	b.Lookup(1, 5) // weight changes are deferred to the epoch boundary
	b.AdvanceEpoch()
	b.Lookup(1, 5)
	m = b.Metrics()
	if m.PIBMisses != 2 {
		t.Fatalf("epoch advance should invalidate the dirtied entry: misses=%d", m.PIBMisses)
	}
}

func TestEpochTimerAdvances(t *testing.T) {
	loop := sim.NewLoop(1)
	b := New(Config{N: 4, Clock: loop, RouteEpoch: 10 * time.Minute})
	defer b.Close()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				b.ReportLink(i, j, 10*time.Millisecond, 0, 0)
			}
		}
	}
	b.RegisterStream(1, 0)
	b.Lookup(1, 2)
	// A changed link metric is deferred to the epoch boundary; the timer
	// firing applies it, invalidating the entry whose path uses the link.
	b.ReportLink(0, 2, 80*time.Millisecond, 0, 0)
	b.Lookup(1, 2)
	if m := b.Metrics(); m.PIBMisses != 1 {
		t.Fatalf("misses = %d before the epoch, want 1", m.PIBMisses)
	}
	loop.RunUntil(25 * time.Minute) // two epochs pass
	b.Lookup(1, 2)
	if m := b.Metrics(); m.PIBMisses != 2 {
		t.Fatalf("misses = %d, want 2 after the timer applied the change", m.PIBMisses)
	}
}

func TestStaleNodeAgedOutAndRevived(t *testing.T) {
	// Global Discovery aging: a crashed node cannot report its own
	// failure, so the Brain marks nodes (and links) whose reports age past
	// StaleAfter as down, and revives them when reports resume.
	loop := sim.NewLoop(3)
	const n = 4
	b := New(Config{N: n, Clock: loop, StaleAfter: 2 * time.Second})
	defer b.Close()
	report := func(skip int) {
		for i := 0; i < n; i++ {
			if i == skip {
				continue
			}
			for j := 0; j < n; j++ {
				if i != j {
					b.ReportLink(i, j, 20*time.Millisecond, 0, 0.1)
				}
			}
		}
	}
	b.RegisterStream(1, 0)
	routesVia := func(hop int) bool {
		paths, err := b.Lookup(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			for _, h := range p {
				if h == hop {
					return true
				}
			}
		}
		return false
	}

	// Everyone reports every 500 ms; node 1 falls silent after t=1s.
	var tick func()
	tick = func() {
		skip := -1
		if loop.Now() >= time.Second {
			skip = 1
		}
		report(skip)
		loop.AfterFunc(500*time.Millisecond, tick)
	}
	tick()

	loop.RunUntil(900 * time.Millisecond)
	if !routesVia(1) {
		t.Fatal("healthy 4-mesh should offer the relay path via node 1")
	}
	loop.RunUntil(6 * time.Second)
	if routesVia(1) {
		t.Fatal("node 1 stopped reporting 5 s ago; routing must avoid it")
	}
	// Node 1 resumes reporting: the next sweep revives it.
	report(-1)
	loop.RunUntil(8 * time.Second)
	if !routesVia(1) {
		t.Fatal("revived node 1 should be routable again")
	}
}

func TestReportLinkDownExcludesImmediately(t *testing.T) {
	b, _ := fullMesh(t, 16, nil)
	b.RegisterStream(1, 2)
	b.ReportLinkDown(2, 11)
	b.ReportLinkDown(11, 2)
	paths, err := b.Lookup(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			if p[i] == 2 && p[i+1] == 11 {
				t.Fatalf("dead direct link still used: %v", p)
			}
		}
	}
	// A fresh measurement report revives the link.
	b.ReportLink(2, 11, 10*time.Millisecond, 0, 0.1)
	paths, _ = b.Lookup(1, 11)
	direct := false
	for _, p := range paths {
		if len(p) == 2 {
			direct = true
		}
	}
	if !direct {
		t.Fatal("revived direct link should be routable again")
	}
}

func TestRecomputeAllFillsPIB(t *testing.T) {
	b, _ := fullMesh(t, 8, nil)
	b.RecomputeAll()
	m := b.Metrics()
	if m.PIBMisses != 8*7 {
		t.Fatalf("misses = %d, want 56", m.PIBMisses)
	}
	b.RegisterStream(1, 0)
	b.Lookup(1, 7)
	if b.Metrics().PIBMisses != 8*7 {
		t.Fatal("lookup after RecomputeAll should hit the PIB")
	}
}

func TestWeightsAvoidLossyLinks(t *testing.T) {
	// Two routes 0->2: direct (lossy) or via 1 (clean, slightly longer).
	b := New(Config{N: 3})
	b.ReportLink(0, 2, 50*time.Millisecond, 0.30, 0.1) // expected ≈ 65ms
	b.ReportLink(0, 1, 30*time.Millisecond, 0, 0.1)
	b.ReportLink(1, 2, 30*time.Millisecond, 0, 0.1) // total 60ms
	b.RegisterStream(1, 0)
	paths, err := b.Lookup(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths[0]) != 3 || paths[0][1] != 1 {
		t.Fatalf("best path = %v, want the clean relay route", paths[0])
	}
}

func TestMaxHopsFilter(t *testing.T) {
	// A line graph 0-1-2-3-4: the only 0->4 path has 4 hops (> 3) and the
	// pair has no last resort, so lookup must return nothing.
	b := New(Config{N: 5})
	for i := 0; i < 4; i++ {
		b.ReportLink(i, i+1, 10*time.Millisecond, 0, 0.1)
	}
	b.RegisterStream(1, 0)
	paths, err := b.Lookup(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("4-hop path should be filtered: %v", paths)
	}
}

// testComputePaths runs Global Routing for one pair on the engine the
// Brain selects and returns the hop-filtered candidates, bypassing the
// PIB.
func testComputePaths(b *Brain, src, dst int) []ksp.Path {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.computeEntryLocked(src, dst).paths
}

// testYenPaths is testComputePaths pinned to the arena-Yen engine,
// whatever the view looks like: the reference the dense enumerator is
// compared against on a full mesh, where the Brain itself would no
// longer pick Yen.
func testYenPaths(b *Brain, src, dst int) []ksp.Path {
	b.mu.Lock()
	defer b.mu.Unlock()
	raw := b.arenasLocked()[0].YenFromTreeH(b.cfg.N, src, dst, b.cfg.K, b.view.NeighborWeights, b.treeLocked(src), b.rdistLocked(dst))
	return b.newEntry(raw, b.view.Version()).paths
}

func TestDenseMatchesYenOnFullMesh(t *testing.T) {
	rng := sim.NewSource(11).Stream("dense")
	for trial := 0; trial < 5; trial++ {
		n := 12 + trial*4
		b := New(Config{N: n})
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					rtt := time.Duration(5+((i*31+j*17+trial*7)%120)) * time.Millisecond
					b.ReportLink(i, j, rtt, 0, 0.1)
				}
			}
		}
		if !b.DenseRouting() {
			t.Fatalf("n=%d: a fully reported mesh must select the dense enumerator", n)
		}
		src := rng.Intn(n)
		dst := (src + 1 + rng.Intn(n-1)) % n
		if src == dst {
			continue
		}
		yp := testYenPaths(b, src, dst)
		dp := testComputePaths(b, src, dst)
		// Yen computes the global top-k then filters >3-hop paths (the
		// paper's order), so it may return fewer than k; dense enumerates
		// within the hop constraint and always finds k. Dense must contain
		// every Yen survivor at the same cost, in order, and only produce
		// valid ≤3-hop paths.
		if len(dp) < len(yp) {
			t.Fatalf("n=%d %d->%d: dense %d paths < yen %d", n, src, dst, len(dp), len(yp))
		}
		di := 0
		for _, y := range yp {
			found := false
			for ; di < len(dp); di++ {
				if math.Abs(dp[di].Cost-y.Cost) < 1e-9 {
					found = true
					di++
					break
				}
				if dp[di].Cost > y.Cost+1e-9 {
					break
				}
			}
			if !found {
				t.Fatalf("n=%d %d->%d: yen path cost %v (%v) missing from dense %+v",
					n, src, dst, y.Cost, y.Nodes, dp)
			}
		}
		for _, p := range dp {
			if len(p.Nodes)-1 > DefaultMaxHops {
				t.Fatalf("dense produced >3-hop path %v", p.Nodes)
			}
		}
	}
}

// TestEngineSelection pins what the Brain observes to pick its routing
// engine: the dense enumerator exactly when the view holds every one of
// the N·(N−1) directed links (and the hop bound is within its reach),
// arena Yen otherwise. Failure marks do not count as missing links.
func TestEngineSelection(t *testing.T) {
	const n = 12
	mesh := func(b *Brain, keep func(i, j int) bool) {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && keep(i, j) {
					b.ReportLink(i, j, time.Duration(5+(i*7+j*3)%40)*time.Millisecond, 0, 0.1)
				}
			}
		}
	}
	all := func(int, int) bool { return true }

	full := New(Config{N: n})
	mesh(full, func(i, j int) bool { return !(i == n-1 && j == n-2) })
	if full.DenseRouting() {
		t.Fatal("one unreported link: the view is not yet a full mesh")
	}
	full.ReportLink(n-1, n-2, 9*time.Millisecond, 0, 0.1)
	if !full.DenseRouting() {
		t.Fatal("fully reported mesh must select the dense enumerator")
	}
	// A failed link (or node) stays in the view at +Inf: the mesh is
	// still full, and the enumerator routes around it.
	full.ReportLinkDown(0, 5)
	full.ReportNodeDown(7)
	if !full.DenseRouting() {
		t.Fatal("a down link must not flip the engine")
	}
	full.RegisterStream(1, 0)
	paths, err := full.Lookup(1, 5)
	if err != nil || len(paths) == 0 {
		t.Fatalf("lookup around the dead link: %v %v", paths, err)
	}
	for _, p := range paths {
		if len(p) == 2 || pathHas(p, 7) {
			t.Fatalf("path %v uses the dead link or node", p)
		}
	}

	// A capped-degree overlay (each node links to its 4 ring neighbours).
	sparse := New(Config{N: n})
	mesh(sparse, func(i, j int) bool { d := (i - j + n) % n; return d <= 2 || d >= n-2 })
	if sparse.DenseRouting() {
		t.Fatal("sparse overlay must stay on arena Yen")
	}

	// The enumerator stops at two relays; a longer hop bound needs Yen.
	long := New(Config{N: n, MaxHops: 5})
	mesh(long, all)
	if long.DenseRouting() {
		t.Fatal("MaxHops beyond the enumerator's reach must stay on arena Yen")
	}
}

func pathHas(p []int, id int) bool {
	for _, h := range p {
		if h == id {
			return true
		}
	}
	return false
}
