package brainfed

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"livenet/internal/brain"
	"livenet/internal/geo"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
)

// testWorld builds a small multi-region world plus its quiet-topology
// adjacency: full mesh within each region, and cross-region links only
// between gateway pairs — the link discipline under which shard-local
// stitching is provably equivalent to monolithic routing (every
// cross-region path must enter the destination region at a gateway).
func testWorld(t *testing.T, n int) (*geo.World, [][2]int) {
	t.Helper()
	src := sim.NewSource(11)
	cfg := geo.DefaultConfig()
	cfg.NumSites = n
	w := geo.Build(cfg, src.Stream("geo"))
	if len(w.Regions()) < 2 {
		t.Fatalf("world has %d regions; need >= 2", len(w.Regions()))
	}
	gws := w.RegionGateways()
	isGW := make(map[int]bool)
	for _, g := range gws {
		for _, id := range g {
			isGW[id] = true
		}
	}
	var links [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sameRegion := w.Sites[i].Region == w.Sites[j].Region
			if sameRegion || (isGW[i] && isGW[j]) {
				links = append(links, [2]int{i, j})
			}
		}
	}
	return w, links
}

// reportAll feeds the identical quiet measurements to any number of
// report sinks (the monolith and the federation in the equivalence
// test), both link directions per adjacency pair. The reported RTTs are
// pure great-circle propagation (a metric), with uniform loss/util: on
// a metric topology a path that crosses a region boundary twice is
// strictly dominated, which is exactly the "quiet topology" premise
// under which stitching provably matches the monolith. (Under live
// transit penalties the monolith can exploit third-region detours a
// two-segment stitch cannot; that gap is the price of sharding, not a
// bug, and the chaos/cluster tests cover the live regime.)
type reportSink interface {
	ReportLink(from, to int, rtt time.Duration, loss, util float64)
}

func metricRTT(w *geo.World, i, j int) time.Duration {
	const earthRadiusKm = 6371.0
	a, b := w.Sites[i], w.Sites[j]
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	h := math.Sin((la2-la1)/2)*math.Sin((la2-la1)/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin((lo2-lo1)/2)*math.Sin((lo2-lo1)/2)
	km := 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
	return time.Duration((km/200.0 + 1.0) * float64(time.Millisecond))
}

func reportAll(w *geo.World, links [][2]int, sinks ...reportSink) {
	for _, l := range links {
		i, j := l[0], l[1]
		rtt := metricRTT(w, i, j)
		for _, s := range sinks {
			s.ReportLink(i, j, rtt, 0.0005, 0.2)
			s.ReportLink(j, i, rtt, 0.0005, 0.2)
		}
	}
}

func pathEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFederationMatchesMonolith is the shard ≡ monolith equivalence
// proof the issue asks for: on a quiet topology whose cross-region
// links terminate only at gateways, the federation's selected path for
// every producer/consumer pair is identical to the monolithic Brain's.
func TestFederationMatchesMonolith(t *testing.T) {
	const n = 36
	w, links := testWorld(t, n)
	part := ByRegion(w, 0)

	var allGW []int
	for s := 0; s < part.Shards(); s++ {
		allGW = append(allGW, part.Gateways(s)...)
	}
	// Generous hop bound on both sides so the hop filter never makes
	// the two systems diverge on which candidate survives.
	bcfg := brain.Config{N: n, MaxHops: 8, LastResort: allGW}
	mono := brain.New(bcfg)
	defer mono.Close()
	fed := New(Config{Brain: bcfg, Partition: part, MaxStitch: 16})
	defer fed.Close()

	reportAll(w, links, mono, fed)

	mismatches := 0
	for p := 0; p < n; p++ {
		for c := 0; c < n; c++ {
			if p == c {
				continue
			}
			mp := mono.LookupByProducer(p, c)
			fp := fed.LookupByProducer(p, c)
			if len(mp) == 0 || len(fp) == 0 {
				t.Fatalf("pair %d->%d: monolith %d paths, federation %d paths", p, c, len(mp), len(fp))
			}
			if !pathEq(mp[0], fp[0]) {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("pair %d->%d: monolith selected %v, federation selected %v", p, c, mp[0], fp[0])
				}
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d pairs diverged", mismatches, n*(n-1))
	}
}

func TestPartitionByRegion(t *testing.T) {
	w, _ := testWorld(t, 36)
	p := ByRegion(w, 0)
	if p.Shards() != len(w.Regions()) {
		t.Fatalf("shards = %d, want one per region (%d)", p.Shards(), len(w.Regions()))
	}
	covered := 0
	for s := 0; s < p.Shards(); s++ {
		if len(p.Gateways(s)) == 0 {
			t.Fatalf("shard %d (%s) has no gateways", s, p.Names[s])
		}
		for _, id := range p.Nodes(s) {
			if p.ShardOf(id) != s {
				t.Fatalf("node %d listed in shard %d but ShardOf says %d", id, s, p.ShardOf(id))
			}
			if w.Sites[id].Region != p.Names[s] {
				t.Fatalf("node %d region %s assigned to shard %s", id, w.Sites[id].Region, p.Names[s])
			}
			covered++
		}
		for _, g := range p.Gateways(s) {
			if p.ShardOf(g) != s {
				t.Fatalf("gateway %d of shard %d owned by shard %d", g, s, p.ShardOf(g))
			}
		}
	}
	if covered != len(w.Sites) {
		t.Fatalf("covered %d nodes, want %d", covered, len(w.Sites))
	}

	// A reduced shard count merges the tail regions into one REST shard.
	if len(w.Regions()) > 2 {
		k := 2
		pm := ByRegion(w, k)
		if pm.Shards() != k {
			t.Fatalf("ByRegion(k=%d) gave %d shards", k, pm.Shards())
		}
		if pm.Names[k-1] != "REST" {
			t.Fatalf("merged shard named %q, want REST", pm.Names[k-1])
		}
		total := 0
		for s := 0; s < k; s++ {
			total += len(pm.Nodes(s))
		}
		if total != len(w.Sites) {
			t.Fatalf("merged partition covers %d nodes, want %d", total, len(w.Sites))
		}
	}
}

func TestPartitionContiguous(t *testing.T) {
	p := Contiguous(10, 3, []int{4, 9})
	if p.Shards() != 3 {
		t.Fatalf("shards = %d, want 3", p.Shards())
	}
	for id := 0; id < 10; id++ {
		s := p.ShardOf(id)
		if s < 0 || s >= 3 {
			t.Fatalf("node %d in shard %d", id, s)
		}
	}
	// Block 1 spans [3,6) and contains reserved relay 4; block 0 has no
	// reserved relay, so it gates through its first node.
	if g := p.Gateways(1); len(g) != 1 || g[0] != 4 {
		t.Fatalf("block 1 gateways = %v, want [4]", g)
	}
	if g := p.Gateways(0); len(g) != 1 || g[0] != 0 {
		t.Fatalf("block 0 gateways = %v, want [0]", g)
	}
}

func TestStitchBoundedByMaxStitch(t *testing.T) {
	const n = 36
	w, links := testWorld(t, n)
	part := ByRegion(w, 0)
	reg := telemetry.NewRegistry()
	fed := New(Config{Brain: brain.Config{N: n, MaxHops: 8}, Partition: part, MaxStitch: 2, Telemetry: reg})
	defer fed.Close()
	reportAll(w, links, fed)

	// One cross-shard lookup may evaluate at most MaxStitch candidates.
	var p, c int = -1, -1
	for id := 0; id < n && c < 0; id++ {
		if p < 0 {
			p = id
			continue
		}
		if part.ShardOf(id) != part.ShardOf(p) {
			c = id
		}
	}
	snapBefore := reg.Snapshot()
	if paths := fed.LookupByProducer(p, c); len(paths) == 0 {
		t.Fatalf("no stitched path for %d->%d", p, c)
	}
	snapAfter := reg.Snapshot()
	evaluated := snapAfter.Counters["brainfed.stitch_candidates"] - snapBefore.Counters["brainfed.stitch_candidates"]
	if evaluated == 0 || evaluated > 2 {
		t.Fatalf("stitch evaluated %d candidates, want 1..2 (MaxStitch)", evaluated)
	}
	if got := snapAfter.Counters["brainfed.lookups_cross"]; got == 0 {
		t.Fatalf("brainfed.lookups_cross not counted")
	}
}

func TestFallbackLadder(t *testing.T) {
	const n = 36
	w, links := testWorld(t, n)
	part := ByRegion(w, 0)
	reg := telemetry.NewRegistry()
	fed := New(Config{Brain: brain.Config{N: n, MaxHops: 8}, Partition: part, MaxStitch: 16, Telemetry: reg})
	defer fed.Close()
	reportAll(w, links, fed)

	// Pick a producer in shard 0 and consumers in another shard: one
	// pair warmed before the partition, one not.
	producer := part.Nodes(0)[0]
	foreign := -1
	for s := 1; s < part.Shards(); s++ {
		if len(part.Nodes(s)) >= 2 {
			foreign = s
			break
		}
	}
	if foreign < 0 {
		t.Skip("no foreign shard with 2+ nodes")
	}
	warmed, cold := part.Nodes(foreign)[0], part.Nodes(foreign)[1]

	fed.RegisterStream(42, producer)
	warmPaths, err := fed.Lookup(42, warmed)
	if err != nil || len(warmPaths) == 0 {
		t.Fatalf("warm lookup failed: %v (%d paths)", err, len(warmPaths))
	}

	// Partition the destination shard. Rung 1: the warmed pair serves
	// its cached stitch byte-for-byte.
	fed.SetShardDown(foreign, true)
	got, err := fed.Lookup(42, warmed)
	if err != nil {
		t.Fatalf("cached fallback errored: %v", err)
	}
	if !pathEq(got[0], warmPaths[0]) {
		t.Fatalf("cached fallback served %v, want cached %v", got[0], warmPaths[0])
	}

	// Rung 2: the cold pair gets a degraded shard-local splice that
	// still ends at the consumer and routes through a gateway.
	coldPaths, err := fed.Lookup(42, cold)
	if err != nil || len(coldPaths) == 0 {
		t.Fatalf("degraded fallback failed: %v (%d paths)", err, len(coldPaths))
	}
	cp := coldPaths[0]
	if cp[0] != producer || cp[len(cp)-1] != cold {
		t.Fatalf("degraded path %v does not run %d->%d", cp, producer, cold)
	}

	// Rung 3: with the producer's shard down too, nothing can be
	// decided and the lookup reports the shard unreachable.
	fed.SetShardDown(0, true)
	if _, err := fed.Lookup(42, cold); !errors.Is(err, ErrShardUnreachable) {
		t.Fatalf("both-shards-down lookup err = %v, want ErrShardUnreachable", err)
	}

	// Heal and the live stitch path is served again.
	fed.SetShardDown(0, false)
	fed.SetShardDown(foreign, false)
	if paths, err := fed.Lookup(42, cold); err != nil || len(paths) == 0 {
		t.Fatalf("post-heal lookup failed: %v", err)
	}

	snap := reg.Snapshot()
	for _, name := range []string{"brainfed.fallback_cached", "brainfed.fallback_local", "brainfed.fallback_failed"} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s = 0, want > 0", name)
		}
	}
}

func TestReportFanInRoutesToOwner(t *testing.T) {
	const n = 36
	w, links := testWorld(t, n)
	part := ByRegion(w, 0)
	fed := New(Config{Brain: brain.Config{N: n}, Partition: part})
	defer fed.Close()
	reportAll(w, links, fed)

	fanIn := fed.ReportFanIn()
	var total uint64
	for s, c := range fanIn {
		if c == 0 {
			t.Errorf("shard %d (%s) ingested no reports", s, part.Names[s])
		}
		total += c
	}
	// Every adjacency pair reports both directions, each to exactly one
	// shard (the probing node's owner).
	if want := uint64(2 * len(links)); total != want {
		t.Fatalf("total fan-in %d, want %d", total, want)
	}

	// Node loads route to the owner as well, and only the owner ages
	// the node: a foreign shard never marks it down.
	fed.ReportNodeLoad(0, 0.5)
	owner := part.ShardOf(0)
	for s := 0; s < part.Shards(); s++ {
		down := fed.Shard(s).View().NodeDown(0)
		if down {
			t.Fatalf("shard %d marked node 0 down after a plain load report", s)
		}
		_ = owner
	}
}

func TestFederationReplicatedSIB(t *testing.T) {
	const n = 36
	w, _ := testWorld(t, n)
	part := ByRegion(w, 0)
	loop := sim.NewLoop(1)
	fed := New(Config{
		Brain:     brain.Config{N: n, Clock: loop},
		Partition: part,
		Replicas:  3,
	})
	defer fed.Close()

	fed.RegisterStream(99, part.Nodes(0)[0])
	// The registration must commit through the shard's Paxos group
	// before the shard Brain sees it.
	loop.RunUntil(2 * time.Second)
	if _, ok := fed.Shard(0).Producer(99); !ok {
		t.Fatalf("shard 0 SIB missing stream 99 after Paxos commit window")
	}
	for s := 1; s < part.Shards(); s++ {
		if _, ok := fed.Shard(s).Producer(99); ok {
			t.Fatalf("stream 99 leaked into non-owner shard %d", s)
		}
	}
	if _, ok := fed.Producer(99); !ok {
		t.Fatalf("federation SIB missing stream 99")
	}
}

// TestNearestPeersKeepsRegionPairGateways is the satellite coverage for
// geo.NearestPeers under sparse MaxPeers overlays: the nearest-m ∪ IXP ∪
// gateway-mesh adjacency must retain at least one IXP-attached (gateway)
// link between every region pair, or cross-region stitching starves.
func TestNearestPeersKeepsRegionPairGateways(t *testing.T) {
	src := sim.NewSource(5)
	cfg := geo.DefaultConfig()
	cfg.NumSites = 48
	w := geo.Build(cfg, src.Stream("geo"))
	regions := w.Regions()
	if len(regions) < 2 {
		t.Skip("single-region world")
	}
	gws := w.RegionGateways()

	// The sparse overlay: nearest-m plus the gateway set, symmetrized —
	// the same union core.peerAdjacency builds for MaxPeers worlds.
	const m = 4
	adj := make(map[[2]int]bool)
	isGW := make(map[int]bool)
	for _, g := range gws {
		for _, id := range g {
			isGW[id] = true
		}
	}
	for i := range w.Sites {
		for _, j := range w.NearestPeers(i, m) {
			adj[[2]int{i, j}] = true
			adj[[2]int{j, i}] = true
		}
	}
	for a := range isGW {
		for b := range isGW {
			if a != b {
				adj[[2]int{a, b}] = true
			}
		}
	}

	for ri := 0; ri < len(regions); ri++ {
		for rj := 0; rj < len(regions); rj++ {
			if ri == rj {
				continue
			}
			found := false
			for _, a := range gws[regions[ri]] {
				for _, b := range gws[regions[rj]] {
					if adj[[2]int{a, b}] {
						found = true
					}
				}
			}
			if !found {
				t.Errorf("region pair %s->%s has no gateway link in the sparse overlay", regions[ri], regions[rj])
			}
		}
	}
	for r, g := range gws {
		if len(g) == 0 {
			t.Errorf("region %s has no gateways", r)
		}
	}
}

func ExampleByRegion() {
	src := sim.NewSource(1)
	cfg := geo.DefaultConfig()
	cfg.NumSites = 24
	w := geo.Build(cfg, src.Stream("geo"))
	p := ByRegion(w, 0)
	fmt.Println(p.Shards() == len(w.Regions()))
	// Output: true
}

// TestStitchCacheSurvivesRestartThenPartition is the ROADMAP item 2
// follow-up pin: decided cross-shard stitches are persisted into the
// per-shard Paxos SIB log, so the cached-stitch fallback rung survives a
// front-end restart. The sequence is restart THEN partition: the
// restarted front-end loses its soft state, replays the log, and must
// still serve the pre-restart stitch byte-for-byte once the destination
// shard partitions away.
func TestStitchCacheSurvivesRestartThenPartition(t *testing.T) {
	const n = 36
	w, links := testWorld(t, n)
	part := ByRegion(w, 0)
	loop := sim.NewLoop(5)
	reg := telemetry.NewRegistry()
	fed := New(Config{
		Brain:     brain.Config{N: n, MaxHops: 8, Clock: loop},
		Partition: part,
		MaxStitch: 16,
		Replicas:  3,
		Telemetry: reg,
	})
	defer fed.Close()
	reportAll(w, links, fed)

	producer := part.Nodes(0)[0]
	foreign := -1
	for s := 1; s < part.Shards(); s++ {
		if len(part.Nodes(s)) > 0 {
			foreign = s
			break
		}
	}
	if foreign < 0 {
		t.Skip("no foreign shard")
	}
	consumer := part.Nodes(foreign)[0]

	fed.RegisterStream(77, producer)
	loop.RunUntil(2 * time.Second) // SIB registration commits
	warm, err := fed.Lookup(77, consumer)
	if err != nil || len(warm) == 0 {
		t.Fatalf("warm cross-shard lookup failed: %v (%d paths)", err, len(warm))
	}
	// Keep a private copy: the cache aliases what Lookup returned.
	want := make([][]int, len(warm))
	for i, p := range warm {
		want[i] = append([]int(nil), p...)
	}
	loop.RunUntil(4 * time.Second) // the stitch op commits through Paxos

	// Front-end restart: all soft state is gone ...
	fed.DropStitchCache()
	// ... and the replayed Paxos log rebuilds it.
	if got := fed.RecoverStitchCache(); got < 1 {
		t.Fatalf("RecoverStitchCache replayed %d entries, want >= 1", got)
	}

	// Now the destination shard partitions away. The cached rung must
	// serve the recovered, pre-restart stitch byte-for-byte.
	fed.SetShardDown(foreign, true)
	got, err := fed.Lookup(77, consumer)
	if err != nil {
		t.Fatalf("post-restart cached fallback errored: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered fallback served %d paths, want %d", len(got), len(want))
	}
	for i := range want {
		if !pathEq(got[i], want[i]) {
			t.Fatalf("recovered fallback path %d = %v, want pre-restart %v", i, got[i], want[i])
		}
	}
	if reg.Snapshot().Counters["brainfed.fallback_cached"] == 0 {
		t.Fatal("fallback_cached = 0: the answer did not come from the cached rung")
	}

	// Control: a restart WITHOUT log replay loses the rung — the same
	// lookup falls through to the degraded shard-local splice instead.
	fed.DropStitchCache()
	before := reg.Snapshot().Counters["brainfed.fallback_cached"]
	if _, err := fed.Lookup(77, consumer); err != nil {
		t.Fatalf("unrecovered lookup errored: %v", err)
	}
	after := reg.Snapshot().Counters["brainfed.fallback_cached"]
	if after != before {
		t.Fatal("unrecovered lookup still hit the cached rung; restart model is broken")
	}
}
