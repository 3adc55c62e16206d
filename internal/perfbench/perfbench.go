// Package perfbench holds the repository's performance benchmark bodies
// as plain functions over *testing.B, so the same code runs two ways:
// as standard `go test -bench` benchmarks (the root bench_test.go
// wrappers) and programmatically via testing.Benchmark from
// `livenet-bench -bench-json`, which snapshots the results to a JSON
// file for cross-PR comparison (see EXPERIMENTS.md).
//
// The paper-scale fleet benchmarks are the headline: N=600 overlay nodes
// on a sparse nearest-peers ∪ IXP topology, with a working set of active
// streams. BrainPaperScale is a from-scratch Global Routing epoch;
// BrainEpochChurn is the same epoch when only ~1% of links changed —
// the incremental-invalidation path that makes the 10-minute routing
// cycle affordable at fleet scale.
package perfbench

import (
	"sort"
	"testing"
	"time"

	"livenet/internal/brain"
	"livenet/internal/brainfed"
	"livenet/internal/core"
	"livenet/internal/geo"
	"livenet/internal/graph"
	"livenet/internal/ksp"
	"livenet/internal/netem"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/workload"
)

// Spec is one registered benchmark: its canonical name (matching the
// root-package Benchmark* wrapper) and its body.
type Spec struct {
	Name string
	Func func(*testing.B)
}

// Specs lists every registered benchmark in deterministic order.
func Specs() []Spec {
	return []Spec{
		{Name: "BrainLookup", Func: BrainLookup},
		{Name: "BrainPaperScale", Func: BrainPaperScale},
		{Name: "BrainPaperScale2000", Func: BrainPaperScale2000},
		{Name: "BrainEpochChurn", Func: BrainEpochChurn},
		{Name: "BrainLookupUnderEpoch", Func: BrainLookupUnderEpoch},
		{Name: "BrainFederatedEpoch", Func: BrainFederatedEpoch},
		{Name: "BrainFederatedChurn", Func: BrainFederatedChurn},
		{Name: "GraphNeighborWeights", Func: GraphNeighborWeights},
		{Name: "MacroPerViewer10k", Func: MacroPerViewer10k},
		{Name: "MacroCohort10k", Func: MacroCohort10k},
		{Name: "MacroCohort1M", Func: MacroCohort1M},
		{Name: "YenKSPFullMesh", Func: YenKSPFullMesh},
		{Name: "DenseMeshRouting", Func: DenseMeshRouting},
		{Name: "GeoWorldBuild600", Func: GeoWorldBuild600},
		{Name: "LoopSchedule", Func: LoopSchedule},
		{Name: "NetemSend", Func: NetemSend},
		{Name: "NodeForwardFanout10", Func: NodeForwardFanout10},
		{Name: "NodeForwardFanout100", Func: NodeForwardFanout100},
		{Name: "NodeForwardFanout1000", Func: NodeForwardFanout1000},
		{Name: "UDPLoopbackEcho", Func: UDPLoopbackEcho},
		{Name: "UDPLoopbackBatchRelay", Func: UDPLoopbackBatchRelay},
		{Name: "PacerLinkCap", Func: PacerLinkCap},
		{Name: "UDPChainHopLatency", Func: UDPChainHopLatency},
	}
}

// --- Paper-scale fleet (N=600, sparse overlay) ---

const (
	paperN       = 600
	paperDegree  = 16 // nearest peers per site (plus the IXP set)
	paperStreams = 12 // active producers: the epoch's working set
)

// paperFleet is a Streaming Brain over a paper-scale sparse overlay with
// a registered working set of streams.
type paperFleet struct {
	n     int
	world *geo.World
	br    *brain.Brain
	links [][2]int // directed overlay links, sorted (src, dst)
	sids  []uint32
}

// newPaperFleet builds a fleet of n sites (paperN is the paper's scale;
// BrainPaperScale2000 stretches the same shape to >3x that).
func newPaperFleet(n int) *paperFleet {
	src := sim.NewSource(7)
	gcfg := geo.DefaultConfig()
	gcfg.NumSites = n
	w := geo.Build(gcfg, src.Stream("geo"))

	// Sparse symmetric adjacency: nearest peers by RTT plus every IXP
	// site, the same shape core.MacroConfig.MaxPeers builds.
	set := make([]map[int]bool, n)
	for i := range set {
		set[i] = make(map[int]bool, paperDegree+8)
	}
	add := func(i, j int) {
		if i != j {
			set[i][j] = true
			set[j][i] = true
		}
	}
	ixps := w.IXPSites()
	for i := 0; i < n; i++ {
		for _, j := range w.NearestPeers(i, paperDegree) {
			add(i, j)
		}
		for _, x := range ixps {
			add(i, x)
		}
	}
	var links [][2]int
	for i := range set {
		for j := range set[i] {
			links = append(links, [2]int{i, j})
		}
	}
	sort.Slice(links, func(a, b int) bool {
		if links[a][0] != links[b][0] {
			return links[a][0] < links[b][0]
		}
		return links[a][1] < links[b][1]
	})

	f := &paperFleet{
		n:     n,
		world: w,
		br:    brain.New(brain.Config{N: n, LastResort: ixps}),
		links: links,
	}
	rng := src.Stream("load")
	for _, l := range links {
		loss := 0.0003 + rng.Float64()*0.001
		util := rng.Float64() * 0.5
		f.br.ReportLink(l[0], l[1], w.RTT(l[0], l[1]), loss, util)
	}
	for s := 0; s < paperStreams; s++ {
		sid := uint32(100 + s)
		f.br.RegisterStream(sid, (s*n)/paperStreams)
		f.sids = append(f.sids, sid)
	}
	return f
}

// epoch computes the full working set: candidate paths from every active
// producer to every consumer site (the paper's 10-minute batch run scoped
// to live streams, which is what the lazy PIB holds at steady state).
func (f *paperFleet) epoch(b *testing.B) {
	for _, sid := range f.sids {
		if _, err := f.br.PrefetchPaths(sid); err != nil {
			b.Fatal(err)
		}
	}
}

// BrainPaperScale measures a from-scratch Global Routing epoch at fleet
// scale: N=600 sites, sparse degree-~16 (+IXP) overlay, k=3 paths from
// each of the active producers to all 599 consumers. One forward Dijkstra
// per producer seeds every consumer's first path (shared SSSP tree); the
// per-producer groups fan out across cores.
func BrainPaperScale(b *testing.B) { brainPaperScale(b, paperN) }

// BrainPaperScale2000 is the same from-scratch epoch stretched to
// N=2000 sites — beyond the paper's fleet, the scale the worker-arena
// engine is sized for (the pre-arena engine held ~50M allocs per epoch
// at N=600 and did not finish a 2000-site round in useful time).
func BrainPaperScale2000(b *testing.B) { brainPaperScale(b, 2000) }

func brainPaperScale(b *testing.B, n int) {
	f := newPaperFleet(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.br.InvalidateAll()
		f.epoch(b)
	}
	b.ReportMetric(float64(n), "sites")
	b.ReportMetric(float64(len(f.links)), "links")
}

// BrainEpochChurn measures the same epoch when only ~1% of the links
// changed since the last routing round: the incremental invalidation
// drops exactly the PIB entries the changes could affect and the refill
// recomputes only those. The per-op gap to BrainPaperScale is the paper's
// argument for incremental routing rounds (EXPERIMENTS.md records it).
func BrainEpochChurn(b *testing.B) {
	f := newPaperFleet(paperN)
	f.epoch(b) // warm PIB: steady state before the first churn round
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.churn(i)
		f.br.AdvanceEpoch()
		f.epoch(b)
	}
	b.ReportMetric(float64(f.dirty()), "dirty_links")
}

// dirty is a churn round's size: ~1 % of the links.
func (f *paperFleet) dirty() int { return max(len(f.links)/100, 1) }

// churn re-reports round i's share of the links with a jittered RTT.
func (f *paperFleet) churn(i int) {
	dirty := f.dirty()
	for k := 0; k < dirty; k++ {
		l := f.links[(i*dirty+k)%len(f.links)]
		jitter := time.Duration(1+(i+k)%7) * time.Millisecond
		f.br.ReportLink(l[0], l[1], f.world.RTT(l[0], l[1])+jitter, 0.0005, 0.1)
	}
}

// BrainLookupUnderEpoch is the serving path measured while the routing
// path runs (ROADMAP item 3's "first measure"): one goroutine calls Lookup
// back to back on the warm working set while another runs BrainEpochChurn's
// round — 1 % of the links re-reported, then AdvanceEpoch. One op is one
// round with its refill; the extras are taken only while AdvanceEpoch is
// running: lookups_per_s, and lookup_wait_p99_us / lookup_wait_max_us, the
// time a single Lookup call took (the p99 from a power-of-two histogram:
// the upper edge of its bucket). A round that holds the serving lock shows
// up as a max — and, once it is long enough, a p99 — one round long.
func BrainLookupUnderEpoch(b *testing.B) {
	f := newPaperFleet(paperN)
	f.epoch(b)
	reg := telemetry.NewRegistry()
	waits := reg.Histogram("lookup_wait_ns")
	var during, longest time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.churn(i)
		done := make(chan struct{})
		start := time.Now()
		go func() {
			f.br.AdvanceEpoch()
			close(done)
		}()
		for q, running := i, true; running; q++ {
			select {
			case <-done:
				running = false
			default:
				t0 := time.Now()
				if _, err := f.br.Lookup(f.sids[q%len(f.sids)], (q*7)%f.n); err != nil {
					b.Fatal(err)
				}
				wait := time.Since(t0)
				waits.Observe(wait.Nanoseconds())
				longest = max(longest, wait)
			}
		}
		during += time.Since(start)
		f.epoch(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(f.dirty()), "dirty_links")
	snap := reg.Snapshot().Histograms["lookup_wait_ns"]
	b.ReportMetric(float64(snap.Count)/during.Seconds(), "lookups_per_s")
	b.ReportMetric(float64(snap.Quantile(0.99))/1e3, "lookup_wait_p99_us")
	b.ReportMetric(float64(longest)/1e3, "lookup_wait_max_us")
}

// --- Federated paper-scale fleet (one Brain shard per region) ---

// fedFleet is the same N=600 sparse overlay as paperFleet, but the
// control plane is the federated Brain: one shard per region with
// oversized regions split into gateway-owning sub-shards, discovery
// reports fanning into the owning shard only, cross-region paths
// digest-stitched at the region gateways.
type fedFleet struct {
	world *geo.World
	fed   *brainfed.Federation
	links [][2]int
	sids  []uint32
}

func newFederatedFleet() *fedFleet {
	src := sim.NewSource(7)
	gcfg := geo.DefaultConfig()
	gcfg.NumSites = paperN
	w := geo.Build(gcfg, src.Stream("geo"))

	set := make([]map[int]bool, paperN)
	for i := range set {
		set[i] = make(map[int]bool, paperDegree+8)
	}
	add := func(i, j int) {
		if i != j {
			set[i][j] = true
			set[j][i] = true
		}
	}
	ixps := w.IXPSites()
	for i := 0; i < paperN; i++ {
		for _, j := range w.NearestPeers(i, paperDegree) {
			add(i, j)
		}
		for _, x := range ixps {
			add(i, x)
		}
	}
	var links [][2]int
	for i := range set {
		for j := range set[i] {
			links = append(links, [2]int{i, j})
		}
	}
	sort.Slice(links, func(a, b int) bool {
		if links[a][0] != links[b][0] {
			return links[a][0] < links[b][0]
		}
		return links[a][1] < links[b][1]
	})

	f := &fedFleet{
		world: w,
		fed: brainfed.New(brainfed.Config{
			Brain: brain.Config{N: paperN},
			// One shard per region, but regions above a quarter of the
			// fleet split into sub-shards: digest stitching keeps
			// cross-region paths whole, so the dominant region no longer
			// sets the per-shard report fan-in ceiling.
			Partition: brainfed.ByRegionSplit(w, paperN/4),
		}),
		links: links,
	}
	rng := src.Stream("load")
	for _, l := range links {
		loss := 0.0003 + rng.Float64()*0.001
		util := rng.Float64() * 0.5
		f.fed.ReportLink(l[0], l[1], w.RTT(l[0], l[1]), loss, util)
	}
	for s := 0; s < paperStreams; s++ {
		sid := uint32(100 + s)
		f.fed.RegisterStream(sid, (s*paperN)/paperStreams)
		f.sids = append(f.sids, sid)
	}
	return f
}

func (f *fedFleet) epoch(b *testing.B) {
	for _, sid := range f.sids {
		if _, err := f.fed.PrefetchPaths(sid); err != nil {
			b.Fatal(err)
		}
	}
}

// reportShape publishes the federation's scaling shape next to the
// timing: shard count and the largest per-shard discovery fan-in. The
// monolithic baseline (BrainPaperScale) ingests all len(links) reports
// in one Brain; here each shard only sees its own region's share —
// BENCH_7.json records both so the fan-in reduction is visible per PR.
func (f *fedFleet) reportShape(b *testing.B) {
	b.ReportMetric(float64(f.fed.Shards()), "shards")
	var maxFan uint64
	for _, n := range f.fed.ReportFanIn() {
		if n > maxFan {
			maxFan = n
		}
	}
	b.ReportMetric(float64(maxFan), "max_shard_reports")
	b.ReportMetric(float64(len(f.links)), "links")
}

// BrainFederatedEpoch measures a from-scratch routing epoch across all
// shards of the federated Brain at paper scale: each shard recomputes
// its region's working set independently (shards fan out across cores
// via AdvanceEpoch's runner), then the per-stream prefetch stitches
// cross-region paths at the gateways. Compare ns/op against
// BrainPaperScale: the monolith solves one N=600 graph, the federation
// solves R region-sized subgraphs plus the stitch overhead.
func BrainFederatedEpoch(b *testing.B) {
	f := newFederatedFleet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.fed.InvalidateAll()
		f.epoch(b)
	}
	b.StopTimer()
	f.reportShape(b)
}

// BrainFederatedChurn is the incremental-epoch variant: ~1% of links
// re-reported, then AdvanceEpoch and the working-set refill. Only the
// shards owning dirty links pay recomputation — the federated analogue
// of BrainEpochChurn's incremental-invalidation argument.
func BrainFederatedChurn(b *testing.B) {
	f := newFederatedFleet()
	f.epoch(b)
	dirty := len(f.links) / 100
	if dirty < 1 {
		dirty = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < dirty; k++ {
			l := f.links[(i*dirty+k)%len(f.links)]
			jitter := time.Duration(1+(i+k)%7) * time.Millisecond
			f.fed.ReportLink(l[0], l[1], f.world.RTT(l[0], l[1])+jitter, 0.0005, 0.1)
		}
		f.fed.AdvanceEpoch()
		f.epoch(b)
	}
	b.StopTimer()
	f.reportShape(b)
	b.ReportMetric(float64(dirty), "dirty_links")
}

// --- Routing micro-benchmarks ---

// BrainLookup measures the Path Decision serve path across quiet routing
// epochs: AdvanceEpoch with no accumulated changes is a no-op, so the
// PIB entry and its memoized decision survive and the lookup costs one
// outer-slice copy. (Before incremental epochs this forced a full KSP
// recompute per iteration.)
func BrainLookup(b *testing.B) {
	const n = 32
	br := brain.New(brain.Config{N: n})
	rng := sim.NewSource(1).Stream("bench")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				br.ReportLink(i, j, time.Duration(5+rng.Intn(100))*time.Millisecond, 0.0005, 0.1)
			}
		}
	}
	br.RegisterStream(1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.AdvanceEpoch()
		if _, err := br.Lookup(1, 1+i%(n-1)); err != nil {
			b.Fatal(err)
		}
	}
}

// GraphNeighborWeights measures the CSR expansion read the Dijkstra inner
// loop runs on: with materialized weight rows it must be two slice
// headers, zero allocations.
func GraphNeighborWeights(b *testing.B) {
	const n = 64
	g := graph.New(n)
	rng := sim.NewSource(1).Stream("bench")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.SetLink(i, j, time.Duration(5+rng.Intn(100))*time.Millisecond, 0.0005, 0.1)
			}
		}
	}
	g.MaterializeWeights()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nbrs, w := g.NeighborWeights(i % n)
		_, _ = nbrs, w
	}
}

// YenKSPFullMesh measures Yen's k=3 KSP on a 48-site full mesh: one
// reused Arena over the graph's cached weight rows.
func YenKSPFullMesh(b *testing.B) {
	const n = 48
	g := graph.New(n)
	rng := sim.NewSource(1).Stream("bench")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				g.SetLink(i, j, time.Duration(5+rng.Intn(100))*time.Millisecond, 0.0005, 0.1)
			}
		}
	}
	var arena ksp.Arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.YenNW(n, i%n, (i+7)%n, 3, g.NeighborWeights)
	}
}

// --- Macro scale: per-viewer vs cohort aggregation (DESIGN.md §11) ---

// macroScaleConfig is the shared shape of the scale benchmarks: a 16-hour
// LiveNet horizon over 32 sites with a flash-crowd doubling for hour 15,
// sized by peak concurrent viewers. Only the engine differs between the
// per-viewer and cohort variants.
func macroScaleConfig(viewers int) core.MacroConfig {
	cfg := core.MacroConfig{
		Seed:         1,
		Sites:        32,
		Hours:        16,
		System:       core.SystemLiveNet,
		Viewers:      viewers,
		TracerSample: 2e-5,
		RungShares:   []float64{0.6, 0.3, 0.1},
	}
	cfg.Workload.Flash = []workload.FlashEvent{{Start: 14 * time.Hour, End: 15 * time.Hour, Multiplier: 2}}
	return cfg
}

// MacroPerViewer10k runs the per-viewer macro engine at a 10k-viewer
// diurnal peak: every viewing session is simulated individually, so cost
// scales linearly with the viewer count. The baseline the cohort variants
// are measured against.
func MacroPerViewer10k(b *testing.B) {
	cfg := macroScaleConfig(10_000)
	cfg.Viewers = 0 // per-viewer engine
	cfg.TracerSample = 0
	cfg.RungShares = nil
	cfg.Workload.PeakViewsPerSec = cfg.Workload.PeakViewsFor(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	var views int
	for i := 0; i < b.N; i++ {
		views = core.RunMacro(cfg).Views
	}
	b.ReportMetric(float64(views), "views")
}

// MacroCohort10k is the same 10k-peak workload through the cohort engine
// (arrival counts per edge/channel/rung bucket; establishers and a traced
// sample simulated exactly, the rest folded in by expectation). The
// ns/op ratio against MacroPerViewer10k is the aggregation speedup.
func MacroCohort10k(b *testing.B) {
	cfg := macroScaleConfig(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	var views int
	for i := 0; i < b.N; i++ {
		views = core.RunMacro(cfg).Views
	}
	b.ReportMetric(float64(views), "views")
}

// MacroCohort1M is the headline scale point: a million concurrent viewers
// at the diurnal peak (~2M under the flash window), infeasible for the
// per-viewer engine, completing in roughly the 10k cohort run's time —
// the cohort engine's cost is O(edges x channels) per arrival bucket,
// independent of the viewer count.
func MacroCohort1M(b *testing.B) {
	cfg := macroScaleConfig(1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	var r *core.MacroResult
	for i := 0; i < b.N; i++ {
		r = core.RunMacro(cfg)
	}
	b.ReportMetric(r.CohortQoE.Viewers, "viewers")
	peak := 0
	for _, ds := range r.ByDay {
		if ds.PeakConcurrency > peak {
			peak = ds.PeakConcurrency
		}
	}
	b.ReportMetric(float64(peak), "peak_concurrency")
}

// DenseMeshRouting measures one full macro day at 48 sites — dominated by
// the Brain's dense-mesh routing refreshes plus session handling.
func DenseMeshRouting(b *testing.B) {
	cfg := core.MacroConfig{Seed: 1, Days: 1, Sites: 48, System: core.SystemLiveNet}
	cfg.Workload.PeakViewsPerSec = 0.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunMacro(cfg)
	}
}

// GeoWorldBuild600 builds the paper-scale 600-site world, including its
// table of every ordered pair's RTT and base loss: the set-up cost that
// makes RTT and BaseLoss loads in the macro engines' hot paths.
func GeoWorldBuild600(b *testing.B) {
	cfg := geo.DefaultConfig()
	cfg.NumSites = paperN
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		geo.Build(cfg, sim.NewSource(7).Stream("geo"))
	}
}

// --- Event-loop / emulator micro-benchmarks ---

// LoopSchedule measures the steady-state cost of the event loop's
// schedule→fire cycle: with the free list, a drained loop should recycle
// event structs instead of allocating per event.
func LoopSchedule(b *testing.B) {
	loop := sim.NewLoop(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop.At(loop.Now()+time.Microsecond, fn)
		loop.Step()
	}
}

// NetemSend measures the per-packet cost of the emulator's send path
// (closure-free AtMsg delivery), draining every packet so the event free
// list reaches steady state.
func NetemSend(b *testing.B) {
	loop := sim.NewLoop(1)
	net := netem.New(loop, loop.RNG("n"))
	net.AddLink(0, 1, netem.LinkConfig{RTT: time.Millisecond, BandwidthBps: 1e9})
	net.Handle(1, func(int, []byte) {})
	data := make([]byte, 1200)
	b.ReportAllocs()
	b.SetBytes(1200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(0, 1, data)
		for loop.Step() {
		}
	}
}
