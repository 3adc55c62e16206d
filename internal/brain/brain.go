// Package brain implements the Streaming Brain (§4): the logically
// centralized controller of LiveNet's flat CDN. It is composed of the
// four modules of Figure 4:
//
//   - Global Discovery collects link/node metrics reported by overlay
//     nodes (1-minute reports) and real-time overload alarms (80% target).
//   - Global Routing abstracts link weights (Eq. 2–3) and computes k=3
//     candidate paths per node pair with Yen's KSP, filtered by the ≤3-hop
//     and overload constraints.
//   - Path Decision serves path lookups from consumer nodes out of the
//     Path Information Base (PIB), falling back to last-resort paths
//     through reserved well-peered relays when every candidate violates
//     the constraints.
//   - Stream Management tracks which producer node carries each live
//     stream in the Stream Information Base (SIB).
//
// Two deliberate implementation differences from the paper keep a
// 600-node fleet affordable. First, instead of recomputing all N² pairs
// every 10 minutes eagerly, the PIB is filled lazily per requested pair
// (an eager RecomputeAll is provided for the paper's batch schedule; it
// fans out across cores with results identical to the serial order).
// Second, AdvanceEpoch is incremental: Global Discovery tracks which
// links and nodes actually changed since the last routing round, and the
// round invalidates only PIB entries those changes could affect — an
// entry whose cached paths avoid every dirty element, and whose k-th
// path cost no dirty element can undercut, is provably unchanged and
// kept. The served paths are identical to a from-scratch recompute
// (asserted by TestIncrementalMatchesRecompute); only the computation
// schedule differs.
package brain

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"livenet/internal/graph"
	"livenet/internal/ksp"
	"livenet/internal/runner"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
)

// Defaults from the paper.
const (
	DefaultK          = 3
	DefaultMaxHops    = 3
	DefaultRouteEpoch = 10 * time.Minute
)

// costEps is the tie margin for the incremental-invalidation bound test:
// a dirty element whose best path lands within costEps of an entry's k-th
// cost invalidates the entry rather than trusting float equality.
const costEps = 1e-9

// invalidateDenom: when more than 1/invalidateDenom of the links (or
// nodes) are dirty, per-entry checks cost more than they save and the
// round falls back to dropping the whole PIB (the macro simulator's
// full-fleet refresh always takes this path, so its schedule is
// unchanged).
const invalidateDenom = 8

// ErrUnknownStream is returned when the SIB has no producer for a stream.
var ErrUnknownStream = errors.New("brain: unknown stream")

// Config configures the Brain.
type Config struct {
	// N is the number of overlay nodes (IDs 0..N-1).
	N int
	// K is the number of candidate paths per pair (default 3).
	K int
	// MaxHops bounds path length in overlay links (default 3).
	MaxHops int
	// RouteEpoch is the Global Routing recomputation period (default 10 m).
	RouteEpoch time.Duration
	// LastResort lists reserved well-peered relay node IDs (§4.3).
	LastResort []int
	// Clock drives epoch advancement; nil means epochs advance only via
	// AdvanceEpoch (useful in unit tests).
	Clock sim.Clock
	// StaleAfter ages out link/node entries that Global Discovery has not
	// refreshed within this window: they are marked down so routing avoids
	// elements whose owner stopped reporting (a crashed node cannot report
	// its own failure). Zero disables aging; it needs Clock to run.
	StaleAfter time.Duration
	// Owns scopes staleness aging to the nodes this Brain is responsible
	// for. A federation shard ingests reports only from its own region, so
	// foreign nodes would otherwise age out despite being healthy — the
	// shard must never mark a node it does not own as stale. Nil means the
	// Brain owns every node (the monolithic deployment).
	Owns func(id int) bool
	// Telemetry is the registry the Brain registers its brain.* counters
	// in (see OBSERVABILITY.md). Nil disables registration at zero cost.
	Telemetry *telemetry.Registry
	// Recompute schedules RecomputeAll/PrefetchPaths batch work; the zero
	// value fans out across GOMAXPROCS workers. runner.Serial() is the
	// reference schedule for determinism tests (results are identical
	// either way).
	Recompute runner.Options
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = DefaultK
	}
	if c.MaxHops <= 0 {
		c.MaxHops = DefaultMaxHops
	}
	if c.RouteEpoch <= 0 {
		c.RouteEpoch = DefaultRouteEpoch
	}
	return c
}

// Metrics are the Brain's cumulative counters.
type Metrics struct {
	Lookups        uint64
	PIBHits        uint64
	PIBMisses      uint64
	LastResortUsed uint64
	OverloadAlarms uint64
	StreamsActive  int
}

type pairKey struct{ src, dst int }

// pibEntry caches one pair's Global Routing result plus what the
// incremental invalidation needs to decide whether it survived a set of
// link/node changes.
type pibEntry struct {
	// version is the graph version the paths were computed at; dirty
	// elements recorded at or before it were already visible then.
	version uint64
	// raw is the KSP output before hop filtering — invalidation must see
	// it, because a filtered-out path changing cost can still change the
	// KSP top-k and therefore the filtered set.
	raw []ksp.Path
	// kth is the cost of the k-th raw path (+Inf when KSP found fewer):
	// a changed element that cannot produce a path cheaper than this
	// cannot displace anything in the entry.
	kth float64
	// paths is raw with over-length paths removed (what decisions see).
	paths []ksp.Path

	// Decision cache: the overload-filtered (Algorithm 1 lines 14–18)
	// served list, memoized against the graph version so repeat lookups
	// in a quiet view are allocation-free except for the outer slice.
	// The inner []int slices are immutable and shared with callers.
	decided   [][]int
	decidedAt uint64 // graph version the filter ran at (0 = never)
	decidedLR bool   // decided is a last-resort fallback
}

// treeEntry is a cached per-producer SSSP tree (one forward Dijkstra
// shared by every consumer of that producer within a graph version).
type treeEntry struct {
	version uint64
	tree    ksp.Tree
}

// rdistEntry is a cached per-consumer reverse distance array (one
// backward Dijkstra shared by every producer pairing with that consumer
// within a graph version).
type rdistEntry struct {
	version uint64
	dist    []float64
}

// Brain is the Streaming Brain.
type Brain struct {
	mu  sync.Mutex
	cfg Config

	view *graph.Graph // global view maintained by Global Discovery

	pib map[pairKey]*pibEntry
	sib map[uint32]int // stream ID -> producer node

	// draining marks relays being decommissioned (planned
	// reconfiguration): path decisions avoid them as interior hops and the
	// last resort skips them, so a drain converges instead of the Brain
	// steering new subscriptions back onto the leaving node.
	draining map[int]bool

	// trees caches one SSSP tree per producer, stamped by graph version.
	trees map[int]treeEntry

	// rdist caches per-consumer reverse shortest distances (dist[v] =
	// v→dst on the current weights), stamped by graph version. Yen spur
	// searches use them as an exact A* heuristic: a spur search then
	// expands only nodes on near-optimal corridors toward the consumer
	// instead of flooding a distance ball around the spur node.
	rdist map[int]rdistEntry

	// arenas is the worker-pinned routing scratch: index w belongs
	// exclusively to runner worker w during a batch fan-out (serial paths
	// use arena 0 under b.mu). Arenas hold no results, only scratch, so
	// they never affect outputs — just allocation counts.
	arenas []*ksp.Arena

	// roundMu serialises routing rounds (AdvanceEpoch) among themselves
	// and guards epochRound, the round they reuse: its arenas are the
	// scratch the plan step runs on while lookups run on arenas under mu.
	// Lock order: roundMu, then mu. lockedRound is the at-once paths'
	// counterpart, under mu, on the serving arenas.
	roundMu     sync.Mutex
	epochRound  round
	lockedRound round
	// planHook is a test seam: a round calls it between freeze and plan,
	// holding roundMu but not mu. Nil outside tests.
	planHook func()

	// Dirty sets for incremental invalidation: elements whose metrics
	// changed since the last routing round, with the graph version at
	// which they last changed (entries computed later already saw it).
	dirtyLinks map[pairKey]uint64
	dirtyNodes map[int]uint64

	// Per-node telemetry ingested by Global Discovery (nil until the
	// first ReportNodeTelemetry): metric snapshots and carried streams,
	// aggregated on demand by GlobalView.
	nodeTel     map[int]telemetry.Snapshot
	nodeStreams map[int][]uint32

	tel     brainInstruments
	timer   sim.Timer
	ageTick sim.Timer
	closed  bool

	// Staleness stamps for Global Discovery aging (nil when disabled).
	linkSeen map[pairKey]time.Duration
	nodeSeen []time.Duration

	// Dense-mesh weight matrix, stamped by graph version (see dense.go;
	// versions start at 1, so the zero stamp forces the first build).
	denseW       []float64
	denseVersion uint64
}

// New creates a Brain over n nodes.
func New(cfg Config) *Brain {
	cfg = cfg.withDefaults()
	b := &Brain{
		cfg:        cfg,
		view:       graph.New(cfg.N),
		pib:        make(map[pairKey]*pibEntry),
		sib:        make(map[uint32]int),
		draining:   make(map[int]bool),
		trees:      make(map[int]treeEntry),
		rdist:      make(map[int]rdistEntry),
		dirtyLinks: make(map[pairKey]uint64),
		dirtyNodes: make(map[int]uint64),
		tel:        newBrainInstruments(cfg.Telemetry),
	}
	if cfg.Clock != nil {
		b.scheduleEpoch()
	}
	if cfg.Clock != nil && cfg.StaleAfter > 0 {
		// Grace-stamp every node at creation so a node is only aged out
		// after it has had a full window to produce its first report.
		now := cfg.Clock.Now()
		b.linkSeen = make(map[pairKey]time.Duration)
		b.nodeSeen = make([]time.Duration, cfg.N)
		for i := range b.nodeSeen {
			b.nodeSeen[i] = now
		}
		b.scheduleAge()
	}
	return b
}

// owns reports whether this Brain is responsible for node id's liveness.
func (b *Brain) owns(id int) bool {
	return b.cfg.Owns == nil || b.cfg.Owns(id)
}

func (b *Brain) scheduleAge() {
	b.ageTick = b.cfg.Clock.AfterFunc(b.cfg.StaleAfter/2, func() {
		b.sweepStale()
		b.mu.Lock()
		if !b.closed {
			b.scheduleAge()
		}
		b.mu.Unlock()
	})
}

// sweepStale marks links and nodes whose reports aged past StaleAfter as
// down (and revives ones that resumed reporting — SetLink already clears
// link state on a fresh report). Changes invalidate the affected PIB
// entries immediately so the next lookup routes around the failed
// elements. Map iteration order does not matter here: each key's effect
// is an independent state transition, and the invalidation below folds
// the resulting dirty set order-insensitively.
func (b *Brain) sweepStale() {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.Clock.Now()
	changed := false
	for k, seen := range b.linkSeen {
		if now-seen > b.cfg.StaleAfter {
			if b.view.SetLinkDown(k.src, k.dst, true) {
				b.markLinkDirtyLocked(k.src, k.dst)
				changed = true
			}
		}
	}
	for id, seen := range b.nodeSeen {
		if !b.owns(id) {
			continue
		}
		stale := now-seen > b.cfg.StaleAfter
		if stale != b.view.NodeDown(id) {
			b.view.SetNodeDown(id, stale)
			b.markNodeDirtyLocked(id)
			changed = true
		}
	}
	if changed {
		b.applyDirtLocked()
	}
}

func (b *Brain) scheduleEpoch() {
	b.timer = b.cfg.Clock.AfterFunc(b.cfg.RouteEpoch, func() {
		b.AdvanceEpoch()
		b.mu.Lock()
		if !b.closed {
			b.scheduleEpoch()
		}
		b.mu.Unlock()
	})
}

// Close stops the epoch timer.
func (b *Brain) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	if b.timer != nil {
		b.timer.Stop()
	}
	if b.ageTick != nil {
		b.ageTick.Stop()
	}
}

// Metrics returns a snapshot of the counters. The struct view is kept for
// existing callers; the same values live in the telemetry registry under
// the brain.* names when one is attached.
func (b *Brain) Metrics() Metrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Metrics{
		Lookups:        b.tel.lookups.Load(),
		PIBHits:        b.tel.pibHits.Load(),
		PIBMisses:      b.tel.pibMisses.Load(),
		LastResortUsed: b.tel.lastResortUsed.Load(),
		OverloadAlarms: b.tel.overloadAlarms.Load(),
		StreamsActive:  len(b.sib),
	}
}

// AdvanceEpoch runs the 10-minute Global Routing cycle: PIB entries
// affected by the metrics that changed since the last cycle are
// invalidated (and recomputed lazily or by RecomputeAll); entries the
// changes provably cannot touch are kept. With no accumulated changes the
// advance is a no-op.
//
// The round takes the serving lock twice, for a freeze and an apply that
// do not grow with the work in between (DESIGN.md §8 "What the serving
// lock covers"): lookups and reports are served while it plans. Rounds
// serialise among themselves — the epoch timer against an explicit call —
// and Close ends them: a round that finds the Brain closed does nothing.
func (b *Brain) AdvanceEpoch() {
	b.roundMu.Lock()
	defer b.roundMu.Unlock()
	b.mu.Lock()
	// A call with nothing to work on is not a round: it reads no clock and
	// records nothing (BrainLookup runs one per lookup).
	if b.closed || (len(b.dirtyLinks) == 0 && len(b.dirtyNodes) == 0) {
		b.mu.Unlock()
		return
	}
	start := time.Now()
	r := &b.epochRound
	planned := b.freezeLocked(r)
	locked := time.Since(start)
	b.mu.Unlock()
	if planned {
		if b.planHook != nil {
			b.planHook()
		}
		for len(r.arenas) < b.cfg.Recompute.PoolSize() {
			r.arenas = append(r.arenas, new(ksp.Arena))
		}
		stale := b.plan(r)
		b.mu.Lock()
		relock := time.Now()
		if !b.closed {
			b.applyLocked(r, stale)
		}
		locked += time.Since(relock)
		b.mu.Unlock()
	}
	r.release()
	b.tel.epochUs.Observe(time.Since(start).Microseconds())
	b.tel.epochLockedUs.Observe(locked.Microseconds())
}

// InvalidateAll unconditionally drops every cached path product — the
// from-scratch baseline the incremental path is benchmarked against.
func (b *Brain) InvalidateAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.invalidatePIBLocked()
	b.clearDirtLocked()
}

func (b *Brain) invalidatePIBLocked() {
	b.tel.pibInvalidated.Add(uint64(len(b.pib)))
	clear(b.pib)
	clear(b.trees)
	clear(b.rdist)
}

// arenasLocked sizes the worker-pinned arena set to the runner pool and
// returns it; index 0 doubles as the serial scratch.
func (b *Brain) arenasLocked() []*ksp.Arena {
	for len(b.arenas) < b.cfg.Recompute.PoolSize() {
		b.arenas = append(b.arenas, new(ksp.Arena))
	}
	return b.arenas
}

func (b *Brain) markLinkDirtyLocked(from, to int) {
	b.dirtyLinks[pairKey{from, to}] = b.view.Version()
}

func (b *Brain) markNodeDirtyLocked(id int) {
	b.dirtyNodes[id] = b.view.Version()
}

// round is one incremental routing round between its freeze and its
// apply: the dirt it took ownership of, the PIB entries it examines, the
// weights it judges them on and the scratch its sweeps run on. Nothing but
// the scratch is written after the freeze, so the plan step works on it
// without the serving lock. A round value is reusable: the next freeze
// into it overwrites the listing and the view in place, so that the freeze
// — the step lookups wait for — allocates nothing large (a 3 MB allocation
// can be made to assist the garbage collector for milliseconds).
type round struct {
	links   map[pairKey]uint64
	nodes   map[int]uint64
	entries []pibRef
	view    *graph.Frozen
	arenas  []*ksp.Arena
}

// pibRef is one PIB entry as the freeze step found it. The plan step
// reads only what newEntry wrote (version, raw, kth); the decision memo
// in the same struct belongs to lookups, under the lock.
type pibRef struct {
	key pairKey
	e   *pibEntry
}

// freezeLocked is the first step of a routing round: it decides whether
// the accumulated dirty links/nodes call for per-entry work at all and,
// if so, hands the round everything it will read. The dirt every entry
// already saw (recorded at or before the oldest entry's compute version)
// is pruned first, so a round after a quiet window is a no-op rather than
// a full drop; when the dirty set is a large fraction of the graph,
// per-entry checks cost more than recomputing, so the whole PIB is
// dropped here and now. Both outcomes report false: there is nothing to
// plan. Otherwise the Brain starts fresh dirty sets — a report that lands
// while the round plans is the next round's business — and r gets the old
// ones, the (key, entry) listing and a frozen weights view.
func (b *Brain) freezeLocked(r *round) bool {
	if len(b.dirtyLinks) == 0 && len(b.dirtyNodes) == 0 {
		return false
	}
	if len(b.pib) == 0 {
		clear(b.trees) // stale trees are version-guarded, but free them
		b.clearDirtLocked()
		return false
	}
	r.entries = r.entries[:0]
	minVer := ^uint64(0)
	for k, e := range b.pib {
		r.entries = append(r.entries, pibRef{k, e})
		if e.version < minVer {
			minVer = e.version
		}
	}
	for k, ver := range b.dirtyLinks {
		if ver <= minVer {
			delete(b.dirtyLinks, k)
		}
	}
	for id, ver := range b.dirtyNodes {
		if ver <= minVer {
			delete(b.dirtyNodes, id)
		}
	}
	nl, nn := len(b.dirtyLinks), len(b.dirtyNodes)
	if nl == 0 && nn == 0 {
		return false
	}
	if nl*invalidateDenom > b.view.Edges() || nn*invalidateDenom > b.cfg.N {
		b.tel.invalidateFull.Inc()
		b.invalidatePIBLocked()
		b.clearDirtLocked()
		return false
	}
	b.tel.invalidateIncremental.Inc()
	r.links, r.nodes = b.dirtyLinks, b.dirtyNodes
	b.dirtyLinks = make(map[pairKey]uint64)
	b.dirtyNodes = make(map[int]uint64)
	r.view = b.view.Freeze(r.view)
	return true
}

func (b *Brain) clearDirtLocked() {
	clear(b.dirtyLinks)
	clear(b.dirtyNodes)
}

// probe is one dirty element prepared for the bound test: shortest
// distances from every source to the element and from the element to
// every destination, on the round's weights. For a dirty link, w is its
// weight and the arrays meet at its endpoints; for a dirty node the
// arrays meet at the node itself and w is 0.
type probe struct {
	ver   uint64
	w     float64
	toS   []float64 // toS[s] = dist(s → element entry)
	fromD []float64 // fromD[d] = dist(element exit → d)
}

// plan is the invalidation algorithm, the middle step of a round: it
// decides, per listed PIB entry, whether the round's dirty links/nodes
// could change the entry's KSP result, and returns the indices of exactly
// those entries. An entry is stale when (a) one of its raw paths
// traverses a dirty element — its cached costs are stale — or (b) the
// cheapest possible path through a dirty element undercuts the entry's
// k-th cost — a new candidate could enter its top-k. Entries failing both
// tests recompute to themselves, so keeping them serves identical paths
// (the property test asserts this).
//
// plan reads the round and the immutable config, and nothing else of the
// Brain: AdvanceEpoch runs it with the serving lock released, the at-once
// paths with the lock held.
func (b *Brain) plan(r *round) []int {
	probes := b.buildProbes(r)
	var stale []int
	for i, ref := range r.entries {
		if r.entryStale(ref, probes) {
			stale = append(stale, i)
		}
	}
	return stale
}

// planWorkers is the plan step's fan-out: one worker fewer than the pool,
// never fewer than one. Go polls the network only from an idle P or from
// sysmon's 10 ms tick, so a fan-out that occupies every P for a round's
// length delays every datagram arriving meanwhile by about the lookup
// latency limit itself (DESIGN.md §8).
func (b *Brain) planWorkers() runner.Options {
	opts := b.cfg.Recompute
	opts.Workers = max(opts.PoolSize()-1, 1)
	return opts
}

// buildProbes runs the per-dirty-element Dijkstra sweeps (forward from
// the element over the CSR, and backward to it over the reverse CSR).
// Sweeps are deduplicated by root — dirty links sharing an endpoint share
// the distance arrays — and fan out across planWorkers; probe outcomes
// are order-independent (entryStale ORs over them), so the parallel
// schedule changes nothing.
func (b *Brain) buildProbes(r *round) []probe {
	n, arenas := b.cfg.N, r.arenas
	// Distinct sweep roots: reverse sweeps end at a dirty link's entry (or
	// a dirty node), forward sweeps start at its exit (or the node).
	revSet := make(map[int]bool)
	fwdSet := make(map[int]bool)
	for lk := range r.links {
		revSet[lk.src] = true
		fwdSet[lk.dst] = true
	}
	for id := range r.nodes {
		revSet[id] = true
		fwdSet[id] = true
	}
	type root struct {
		id  int
		rev bool
	}
	roots := make([]root, 0, len(revSet)+len(fwdSet))
	for id := range revSet {
		roots = append(roots, root{id: id, rev: true})
	}
	for id := range fwdSet {
		roots = append(roots, root{id: id})
	}
	sort.Slice(roots, func(a, c int) bool {
		if roots[a].rev != roots[c].rev {
			return roots[a].rev
		}
		return roots[a].id < roots[c].id
	})
	r.view.MaterializeWeights() // both row directions: workers only read
	nw, inw := r.view.NeighborWeights, r.view.InNeighborWeights
	dists, _ := runner.MapW(b.planWorkers(), roots, func(w int, rt root) []float64 {
		if rt.rev {
			return arenas[w].DijkstraDist(n, rt.id, inw)
		}
		return arenas[w].DijkstraDist(n, rt.id, nw)
	})
	rev := make(map[int][]float64, len(revSet))
	fwd := make(map[int][]float64, len(fwdSet))
	for i, rt := range roots {
		if rt.rev {
			rev[rt.id] = dists[i]
		} else {
			fwd[rt.id] = dists[i]
		}
	}
	probes := make([]probe, 0, len(r.links)+len(r.nodes))
	for lk, ver := range r.links {
		probes = append(probes, probe{
			ver: ver, w: r.view.Weight(lk.src, lk.dst), toS: rev[lk.src], fromD: fwd[lk.dst],
		})
	}
	for id, ver := range r.nodes {
		probes = append(probes, probe{ver: ver, toS: rev[id], fromD: fwd[id]})
	}
	return probes
}

// entryStale reports whether any of the round's dirty elements recorded
// after the entry's compute version could change its KSP result.
func (r *round) entryStale(ref pibRef, probes []probe) bool {
	k, e := ref.key, ref.e
	for _, p := range e.raw {
		for i, nd := range p.Nodes {
			if ver, ok := r.nodes[nd]; ok && ver > e.version {
				return true
			}
			if i+1 < len(p.Nodes) {
				if ver, ok := r.links[pairKey{nd, p.Nodes[i+1]}]; ok && ver > e.version {
					return true
				}
			}
		}
	}
	limit := e.kth + costEps
	for i := range probes {
		pr := &probes[i]
		if pr.ver <= e.version {
			continue
		}
		if pr.toS[k.src]+pr.w+pr.fromD[k.dst] < limit {
			return true
		}
	}
	return false
}

// applyLocked is the last step of a round: it drops the entries the plan
// found stale — but only where the PIB still holds the very entry the
// plan examined. A key that was dropped and recomputed since the freeze
// holds an entry that saw every change the round is about.
func (b *Brain) applyLocked(r *round, stale []int) {
	dropped := uint64(0)
	for _, i := range stale {
		ref := r.entries[i]
		if b.pib[ref.key] == ref.e {
			delete(b.pib, ref.key)
			dropped++
		}
	}
	b.tel.pibInvalidated.Add(dropped)
}

// applyDirtLocked is a whole routing round at once, for the changes that
// must not wait for the epoch: a failure report or a revival takes
// routing effect before the call that ingested it returns, so the three
// steps run back to back under the serving lock, on the serving arenas.
func (b *Brain) applyDirtLocked() {
	r := &b.lockedRound
	r.arenas = b.arenasLocked()
	if b.freezeLocked(r) {
		b.applyLocked(r, b.plan(r))
	}
	r.release()
}

// release drops what a finished round points at; the round is kept for
// its capacity.
func (r *round) release() {
	clear(r.entries)
	r.links, r.nodes = nil, nil
}

// --- Global Discovery ---

// ReportLink ingests one link measurement from a node's periodic report.
// The changed weight takes routing effect at the next epoch; a report on
// a previously-down link revives it immediately (the affected PIB entries
// are invalidated so recomputed paths may use it again).
func (b *Brain) ReportLink(from, to int, rtt time.Duration, loss, util float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wasDown := false
	if l := b.view.Link(from, to); l != nil {
		wasDown = l.Down
	}
	if b.view.SetLink(from, to, rtt, loss, util) {
		b.markLinkDirtyLocked(from, to)
		if wasDown {
			b.applyDirtLocked()
		}
	}
	if b.linkSeen != nil {
		now := b.cfg.Clock.Now()
		b.linkSeen[pairKey{from, to}] = now
		// A node that reports a link is alive, whatever its load says.
		b.nodeSeen[from] = now
	}
}

// ReportLinkDown ingests an immediate link-failure report (a neighbor's
// probes time out, §4.2): the link is excluded from routing at once.
func (b *Brain) ReportLinkDown(from, to int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.view.SetLinkDown(from, to, true) {
		b.markLinkDirtyLocked(from, to)
		b.applyDirtLocked()
	}
}

// ReportNodeDown ingests an immediate node-failure report; ReportNodeLoad
// (or staleness recovery) revives the node.
func (b *Brain) ReportNodeDown(id int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.view.SetNodeDown(id, true) {
		b.markNodeDirtyLocked(id)
		b.applyDirtLocked()
	}
}

// ReportNodeLoad ingests a node's combined load metric (§4.2 footnote 4).
func (b *Brain) ReportNodeLoad(id int, util float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.view.SetNodeUtil(id, util) {
		b.markNodeDirtyLocked(id)
	}
	if b.view.NodeDown(id) {
		b.view.SetNodeDown(id, false)
		b.markNodeDirtyLocked(id)
		b.applyDirtLocked()
	}
	if b.nodeSeen != nil {
		b.nodeSeen[id] = b.cfg.Clock.Now()
	}
}

// OverloadAlarm handles a real-time alarm: the node's paths must be
// invalidated immediately rather than waiting for the next epoch (§4.2).
// Recording the reported utilization in the view makes the Path
// Decision's validity filter reject paths through it at once — the bump
// in graph version expires every cached decision.
func (b *Brain) OverloadAlarm(id int, util float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tel.overloadAlarms.Inc()
	if b.view.SetNodeUtil(id, util) {
		b.markNodeDirtyLocked(id)
	}
}

// LinkOverloadAlarm is the link-level variant.
func (b *Brain) LinkOverloadAlarm(from, to int, util float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tel.overloadAlarms.Inc()
	if l := b.view.Link(from, to); l != nil {
		if b.view.SetLink(from, to, l.RTT, l.Loss, util) {
			b.markLinkDirtyLocked(from, to)
		}
	}
}

// View returns a snapshot clone of the global view (for the evaluation
// harness and ablations).
func (b *Brain) View() *graph.Graph {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.view.Clone()
}

// --- Stream Management ---

// RegisterStream records a stream's producer node in the SIB.
func (b *Brain) RegisterStream(sid uint32, producer int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sib[sid] = producer
	b.tel.streamsActive.Set(float64(len(b.sib)))
}

// UnregisterStream removes a finished stream.
func (b *Brain) UnregisterStream(sid uint32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.sib, sid)
	b.tel.streamsActive.Set(float64(len(b.sib)))
}

// Producer looks up a stream's producer node.
func (b *Brain) Producer(sid uint32) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.sib[sid]
	return p, ok
}

// --- Path Decision (Algorithm 1, GetPath) ---

// Lookup serves a path request: stream ID + consumer node → up to K
// candidate paths (producer→consumer node sequences) ordered by
// preference. Paths with overloaded links/nodes are deleted (IsInvalid);
// when none survive, a last-resort path through a reserved relay is
// returned. The outer slice is the caller's to keep; the inner path
// slices are shared immutable data and must not be modified.
func (b *Brain) Lookup(sid uint32, consumer int) ([][]int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tel.lookups.Inc()
	producer, ok := b.sib[sid]
	if !ok {
		return nil, ErrUnknownStream
	}
	return b.pathsLocked(producer, consumer), nil
}

// LookupByProducer is like Lookup but bypasses the SIB (used for
// prefetching and the Hier baseline comparison harness).
func (b *Brain) LookupByProducer(producer, consumer int) [][]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pathsLocked(producer, consumer)
}

func (b *Brain) pathsLocked(producer, consumer int) [][]int {
	if producer == consumer {
		return [][]int{{producer}} // 0-hop path: one node is both roles
	}
	return b.serveLocked(producer, consumer, b.pibEntryLocked(producer, consumer))
}

// serveLocked applies the decision-time validity filter (Algorithm 1
// lines 14–18) and the last-resort fallback, memoizing the result against
// the graph version: while the view is unchanged, repeat lookups reuse
// the filtered list and pay one outer-slice allocation.
func (b *Brain) serveLocked(producer, consumer int, e *pibEntry) [][]int {
	if v := b.view.Version(); e.decidedAt != v {
		e.decidedAt = v
		e.decidedLR = false
		e.decided = e.decided[:0]
		for _, p := range e.paths {
			if !b.view.PathOverloaded(p.Nodes) && !b.pathDrainingLocked(p.Nodes) {
				e.decided = append(e.decided, p.Nodes)
			}
		}
		if len(e.decided) == 0 {
			// Last resort (§4.3): producer → reserved relay → consumer.
			if lr := b.lastResortLocked(producer, consumer); lr != nil {
				e.decided = append(e.decided, lr)
				e.decidedLR = true
			}
		}
	}
	if len(e.decided) == 0 {
		return nil
	}
	if e.decidedLR {
		b.tel.lastResortUsed.Inc()
	}
	out := make([][]int, len(e.decided))
	copy(out, e.decided)
	return out
}

// pathDrainingLocked reports whether any interior hop of path is
// draining. Endpoints are exempt: a draining node keeps serving its own
// producers and locally attached viewers — only relayed traffic moves.
func (b *Brain) pathDrainingLocked(path []int) bool {
	if len(b.draining) == 0 {
		return false
	}
	for _, id := range path[1 : len(path)-1] {
		if b.draining[id] {
			return true
		}
	}
	return false
}

// SetDraining marks a relay as (not) draining for path decisions. The
// view version is bumped so memoized decisions made before the change
// expire immediately.
func (b *Brain) SetDraining(id int, v bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.draining[id] == v {
		return
	}
	if v {
		b.draining[id] = true
	} else {
		delete(b.draining, id)
	}
	b.view.BumpVersion()
}

// Draining reports whether a node is marked draining.
func (b *Brain) Draining(id int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.draining[id]
}

// pibEntryLocked returns the cached PIB entry for a pair, computing it if
// absent (lazy variant of the 10-minute Global Routing run — entries stay
// valid across epochs until invalidation drops them).
func (b *Brain) pibEntryLocked(src, dst int) *pibEntry {
	k := pairKey{src, dst}
	if e, ok := b.pib[k]; ok {
		b.tel.pibHits.Inc()
		return e
	}
	b.tel.pibMisses.Inc()
	e := b.computeEntryLocked(src, dst)
	b.pib[k] = e
	return e
}

// computeEntryLocked is the Global Routing two-step solution (§4.3): KSP
// on the abstracted weights, then constraint filtering (length only —
// overload filtering happens at decision time so alarms take effect
// immediately).
func (b *Brain) computeEntryLocked(src, dst int) *pibEntry {
	var raw []ksp.Path
	if b.denseLocked() {
		raw = b.computePathsDense(src, dst)
	} else {
		a := b.arenasLocked()[0]
		raw = a.YenFromTreeH(b.cfg.N, src, dst, b.cfg.K, b.view.NeighborWeights, b.treeLocked(src), b.rdistLocked(dst))
	}
	return b.newEntry(raw, b.view.Version())
}

// newEntry derives the invalidation and decision state from a KSP result.
func (b *Brain) newEntry(raw []ksp.Path, version uint64) *pibEntry {
	e := &pibEntry{version: version, raw: raw, kth: math.Inf(1), paths: raw}
	if len(raw) >= b.cfg.K {
		e.kth = raw[len(raw)-1].Cost
	}
	for i, p := range raw {
		if p.Hops() > b.cfg.MaxHops {
			filtered := make([]ksp.Path, 0, len(raw)-1)
			filtered = append(filtered, raw[:i]...)
			for _, q := range raw[i+1:] {
				if q.Hops() <= b.cfg.MaxHops {
					filtered = append(filtered, q)
				}
			}
			e.paths = filtered
			break
		}
	}
	return e
}

// treeLocked returns the SSSP tree rooted at src for the current graph
// version, computing and caching it on first use. Every consumer pairing
// with this producer shares it for their first candidate path.
func (b *Brain) treeLocked(src int) ksp.Tree {
	v := b.view.Version()
	if te, ok := b.trees[src]; ok && te.version == v {
		return te.tree
	}
	t := b.arenasLocked()[0].SSSP(b.cfg.N, src, b.view.NeighborWeights)
	b.trees[src] = treeEntry{version: v, tree: t}
	return t
}

// rdistLocked returns the reverse-distance array toward dst for the
// current graph version, computing and caching it on first use. Every
// producer pairing with this consumer shares it as the spur-search A*
// heuristic.
func (b *Brain) rdistLocked(dst int) []float64 {
	v := b.view.Version()
	if re, ok := b.rdist[dst]; ok && re.version == v {
		return re.dist
	}
	d := b.arenasLocked()[0].DijkstraDist(b.cfg.N, dst, b.view.InNeighborWeights)
	b.rdist[dst] = rdistEntry{version: v, dist: d}
	return d
}

// lastResortLocked builds producer → LR → consumer through the best
// reserved relay. Last-resort nodes are exempt from the overload filter —
// they are capacity reserved specifically for this (§4.3).
func (b *Brain) lastResortLocked(producer, consumer int) []int {
	bestCost := -1.0
	var best []int
	for _, lr := range b.cfg.LastResort {
		if lr == producer || lr == consumer {
			continue
		}
		// Skip relays known to be failed. Legs that merely lack
		// measurements (Inf weight at bootstrap) stay eligible — the Brain
		// must answer before the first discovery reports arrive.
		if b.view.NodeDown(lr) || b.draining[lr] {
			continue
		}
		if l := b.view.Link(producer, lr); l != nil && l.Down {
			continue
		}
		if l := b.view.Link(lr, consumer); l != nil && l.Down {
			continue
		}
		w1 := b.view.Weight(producer, lr)
		w2 := b.view.Weight(lr, consumer)
		if w1+w2 < 0 {
			continue
		}
		if cost := w1 + w2; best == nil || cost < bestCost {
			bestCost = cost
			best = []int{producer, lr, consumer}
		}
	}
	return best
}

// recomputeJob is one producer's share of a batch recompute.
type recomputeJob struct {
	src  int
	dsts []int
	tree ksp.Tree
	has  bool // tree is valid (cached before the fan-out)
}

// recomputeMissingLocked computes PIB entries for every listed (src,dsts)
// group, fanning the per-producer jobs out across the runner pool and
// merging results in deterministic (src, dst) order. Workers only read
// the graph: weight rows are materialized up front and every consumer's
// reverse-distance heuristic is precomputed before the fan-out, so the
// parallel schedule is byte-identical to the serial one. Each worker
// runs its searches on its own pinned arena — the steady state of a
// batch allocates only the results it retains.
func (b *Brain) recomputeMissingLocked(jobs []recomputeJob) {
	if len(jobs) == 0 {
		return
	}
	version := b.view.Version()
	arenas := b.arenasLocked()
	dense := b.denseLocked()
	if dense {
		b.denseWeightsLocked() // build once; workers then read it
	} else {
		b.view.MaterializeWeights()
		for i := range jobs {
			if te, ok := b.trees[jobs[i].src]; ok && te.version == version {
				jobs[i].tree, jobs[i].has = te.tree, true
			}
		}
		b.precomputeRdistLocked(jobs, version)
	}
	type jobResult struct {
		tree    ksp.Tree
		entries []*pibEntry
	}
	nw := b.view.NeighborWeights
	results, _ := runner.MapW(b.cfg.Recompute, jobs, func(w int, j recomputeJob) jobResult {
		r := jobResult{entries: make([]*pibEntry, len(j.dsts))}
		if dense {
			for i, d := range j.dsts {
				r.entries[i] = b.newEntry(b.computePathsDense(j.src, d), version)
			}
			return r
		}
		a := arenas[w]
		r.tree = j.tree
		if !j.has {
			r.tree = a.SSSP(b.cfg.N, j.src, nw)
		}
		for i, d := range j.dsts {
			r.entries[i] = b.newEntry(a.YenFromTreeH(b.cfg.N, j.src, d, b.cfg.K, nw, r.tree, b.rdist[d].dist), version)
		}
		return r
	})
	for ji, j := range jobs {
		if !dense {
			b.trees[j.src] = treeEntry{version: version, tree: results[ji].tree}
		}
		for i, d := range j.dsts {
			b.pib[pairKey{j.src, d}] = results[ji].entries[i]
			b.tel.pibMisses.Inc()
		}
	}
}

// precomputeRdistLocked builds the reverse-distance heuristic for every
// consumer the jobs will touch, in parallel, before the pair fan-out —
// workers then read b.rdist without synchronization.
func (b *Brain) precomputeRdistLocked(jobs []recomputeJob, version uint64) {
	need := make(map[int]bool)
	for i := range jobs {
		for _, d := range jobs[i].dsts {
			if !need[d] {
				if re, ok := b.rdist[d]; !ok || re.version != version {
					need[d] = true
				}
			}
		}
	}
	if len(need) == 0 {
		return
	}
	missing := make([]int, 0, len(need))
	for d := range need {
		missing = append(missing, d)
	}
	sort.Ints(missing)
	arenas := b.arenasLocked()
	inw := b.view.InNeighborWeights
	dists, _ := runner.MapW(b.cfg.Recompute, missing, func(w, d int) []float64 {
		return arenas[w].DijkstraDist(b.cfg.N, d, inw)
	})
	for i, d := range missing {
		b.rdist[d] = rdistEntry{version: version, dist: dists[i]}
	}
}

// RecomputeAll eagerly fills the PIB for every pair not already cached
// (the paper's 10-minute batch run). The per-producer groups fan out
// across cores; the result is identical to the lazy serial fill.
func (b *Brain) RecomputeAll() {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.cfg.N
	jobs := make([]recomputeJob, 0, n)
	for s := 0; s < n; s++ {
		var dsts []int
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if _, ok := b.pib[pairKey{s, d}]; ok {
				b.tel.pibHits.Inc()
				continue
			}
			dsts = append(dsts, d)
		}
		if len(dsts) > 0 {
			jobs = append(jobs, recomputeJob{src: s, dsts: dsts})
		}
	}
	b.recomputeMissingLocked(jobs)
}

// PrefetchPaths computes candidate paths from a popular stream's producer
// to every node, for proactive installation on overlay nodes ahead of
// viewer arrival (§4.4). Missing entries are computed in parallel off the
// producer's shared SSSP tree.
func (b *Brain) PrefetchPaths(sid uint32) (map[int][][]int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	producer, ok := b.sib[sid]
	if !ok {
		return nil, ErrUnknownStream
	}
	var missing []int
	for d := 0; d < b.cfg.N; d++ {
		if d == producer {
			continue
		}
		if _, ok := b.pib[pairKey{producer, d}]; ok {
			b.tel.pibHits.Inc()
		} else {
			missing = append(missing, d)
		}
	}
	if len(missing) > 0 {
		// One producer, many destinations: split into per-worker chunks
		// that all share the producer's tree.
		pool := b.cfg.Recompute.PoolSize()
		chunk := (len(missing) + pool - 1) / pool
		var jobs []recomputeJob
		for at := 0; at < len(missing); at += chunk {
			end := at + chunk
			if end > len(missing) {
				end = len(missing)
			}
			jobs = append(jobs, recomputeJob{src: producer, dsts: missing[at:end]})
		}
		if !b.denseLocked() {
			b.treeLocked(producer) // ensure the shared tree exists once
		}
		b.recomputeMissingLocked(jobs)
	}
	out := make(map[int][][]int, b.cfg.N)
	for d := 0; d < b.cfg.N; d++ {
		if d == producer {
			continue
		}
		if paths := b.serveLocked(producer, d, b.pib[pairKey{producer, d}]); len(paths) > 0 {
			out[d] = paths
		}
	}
	return out, nil
}

// PathCost sums the current Eq. 2 weights along a node path (+Inf when a
// hop has no usable measurement). The federation front-end ranks
// cross-shard stitch candidates with it; a single-node path costs 0.
func (b *Brain) PathCost(path []int) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pathCostLocked(path)
}

func (b *Brain) pathCostLocked(path []int) float64 {
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		total += b.view.Weight(path[i], path[i+1])
	}
	return total
}

// Segment is one answer in a batched segment lookup: the best current
// path for the pair plus its Eq. 2 cost. An empty Path (Cost +Inf)
// means the pair has no usable route in this Brain's view.
type Segment struct {
	Path []int
	Cost float64
}

func (b *Brain) segmentLocked(src, dst int) Segment {
	paths := b.pathsLocked(src, dst)
	if len(paths) == 0 {
		return Segment{Cost: math.Inf(1)}
	}
	return Segment{Path: paths[0], Cost: b.pathCostLocked(paths[0])}
}

// LookupSegments answers a batch of same-source path queries under one
// lock acquisition: for each destination, the best current path
// src→dst with its cost. The federation front-end uses it to fetch a
// producer's segments to every candidate gateway (and a shard's digest
// row) as one shard query instead of one query per gateway.
func (b *Brain) LookupSegments(src int, dsts []int) []Segment {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Segment, len(dsts))
	for i, d := range dsts {
		out[i] = b.segmentLocked(src, d)
	}
	return out
}

// LookupSegmentsInto is the reverse batch: the best current path
// src→dst for each source — the destination shard's gateway→consumer
// segments, fetched as one query.
func (b *Brain) LookupSegmentsInto(srcs []int, dst int) []Segment {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Segment, len(srcs))
	for i, s := range srcs {
		out[i] = b.segmentLocked(s, dst)
	}
	return out
}

// ViewVersion returns the view's version counter — the cheap staleness
// check the federation's digest exporter keys on: a shard's digest is
// rebuilt only when this moves.
func (b *Brain) ViewVersion() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.view.Version()
}

// SortedPIBKeys returns the current PIB keys in (src, dst) order — the
// deterministic walk order for callers that fold PIB state into reports.
func (b *Brain) SortedPIBKeys() [][2]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][2]int, 0, len(b.pib))
	for k := range b.pib {
		out = append(out, [2]int{k.src, k.dst})
	}
	sort.Slice(out, func(a, c int) bool {
		if out[a][0] != out[c][0] {
			return out[a][0] < out[c][0]
		}
		return out[a][1] < out[c][1]
	})
	return out
}
