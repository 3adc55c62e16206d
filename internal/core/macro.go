package core

import (
	"fmt"
	"math"
	"time"

	"livenet/internal/brain"
	"livenet/internal/client"
	"livenet/internal/geo"
	"livenet/internal/sim"
	"livenet/internal/stats"
	"livenet/internal/workload"
)

// System selects which transport network a macro run evaluates.
type System string

// Systems under evaluation.
const (
	SystemLiveNet System = "LiveNet"
	SystemHier    System = "Hier"
)

// MacroConfig parameterizes a session-level evaluation run.
type MacroConfig struct {
	Seed   int64
	Days   int
	Sites  int
	System System
	// Workload overrides; zero values take defaults.
	Workload workload.Config

	// Ablation toggles (all default off = paper configuration).
	DisableGoPCache    bool // startup cannot be served from cached GoPs
	DisablePrefetch    bool // no proactive paths for popular channels
	DisableLastResort  bool
	DisableLoadWeights bool // report zero utilization: pure-RTT routing
	KPaths             int  // overrides k=3 when > 0

	// Calibration constants (defaults reflect DESIGN.md §4; exposed for
	// sensitivity ablations).
	LiveNetHopProc time.Duration // per-hop processing, fast path
	StreamBitrate  float64       // average per-view bitrate (bps)

	// MaxPeers > 0 replaces the full-mesh overlay with a sparse one: each
	// site keeps links to its MaxPeers nearest peers by RTT plus every IXP
	// site (symmetrized). 0 keeps the full mesh. This is what makes
	// paper-scale site counts tractable — Global Discovery reports and
	// Global Routing then scale with N·degree instead of N².
	MaxPeers int

	// Regions > 0 replaces the monolithic Streaming Brain with a federated
	// one (internal/brainfed): per-region shards each run Global Routing
	// over their own nodes' reports and cross-region paths are stitched at
	// region gateways. 0 keeps the single Brain. Only meaningful for
	// SystemLiveNet.
	Regions int

	// CohortViewers switches the engines to cohort aggregation (DESIGN.md
	// §11): viewers collapse into per-(edge, channel, rung) counts and QoE
	// is accounted analytically per cohort, with a sampled tracer cohort
	// simulated exactly. Cost becomes O(edges × channels) per bucket,
	// independent of the viewer count.
	CohortViewers bool
	// Viewers targets a peak concurrent-viewer count: it derives the
	// workload arrival rate by Little's law (if PeakViewsPerSec is unset)
	// and implies CohortViewers.
	Viewers int
	// TracerSample is the per-view probability of exact simulation under
	// CohortViewers (default 0.2%); tracers supply the distribution-level
	// stats the weighted aggregates cannot.
	TracerSample float64
	// Hours > 0 shortens the horizon to a sub-day run (cohort-scale runs
	// rarely need the full 20 days).
	Hours int
	// RungShares splits cohort viewers across bitrate rungs (rung r plays
	// at 2^-r of the top bitrate). Empty means everyone on rung 0.
	// Cohort engines only.
	RungShares []float64
}

func (c MacroConfig) withDefaults() MacroConfig {
	if c.Days <= 0 {
		c.Days = 20
	}
	if c.Sites <= 0 {
		c.Sites = 48
	}
	if c.System == "" {
		c.System = SystemLiveNet
	}
	if c.LiveNetHopProc <= 0 {
		// What a hop adds to the delay extension's packet — the first packet
		// of an I frame — under load: the I-frame burst queueing for the
		// link's GCC rate. Re-measured in the packet-level cluster after the
		// pacer became work-conserving (PR 14; `livenet-bench -telemetry`):
		// 21–28 ms at the producer's hop, 0–2 ms at a relay whose upstream
		// already spaced the burst, node.pacer_wait_us mean 12.7 ms over
		// all packets (p50 under 0.26 ms). It never was the 2 ms drain tick,
		// so the constant and the macro tables built on it stay.
		c.LiveNetHopProc = 18 * time.Millisecond
	}
	if c.StreamBitrate <= 0 {
		c.StreamBitrate = 1.5e6
	}
	if c.Viewers > 0 {
		c.CohortViewers = true
		if c.Workload.PeakViewsPerSec <= 0 {
			c.Workload.PeakViewsPerSec = c.Workload.PeakViewsFor(c.Viewers)
		}
	}
	if c.CohortViewers && c.TracerSample <= 0 {
		c.TracerSample = 0.002
	}
	if c.Workload.PeakViewsPerSec <= 0 {
		c.Workload.PeakViewsPerSec = 2
	}
	return c
}

// DayStats aggregates one day's session metrics.
type DayStats struct {
	CDNDelayMs *stats.Sample
	PathLen    *stats.Sample
	Streaming  *stats.Sample
	ZeroStall  stats.Ratio
	FastStart  stats.Ratio
	// PeakConcurrency is the day's max simultaneous views.
	PeakConcurrency int
	// UniquePaths counts distinct overlay paths used this day.
	UniquePaths int
	// Cohort holds the day's pooled QoE aggregates (cohort engines only).
	Cohort *client.Cohort
}

func newDayStats() *DayStats {
	return &DayStats{CDNDelayMs: &stats.Sample{}, PathLen: &stats.Sample{}, Streaming: &stats.Sample{}}
}

// MacroResult aggregates a full run; the eval package renders the paper's
// tables and figures from it.
type MacroResult struct {
	System System
	Views  int

	CDNDelayMs *stats.Sample // per view, ms
	PathLen    *stats.Sample
	Streaming  *stats.Sample // per view median streaming delay, ms

	StallCounts map[int]int // stalls -> number of views
	ZeroStall   stats.Ratio
	FastStart   stats.Ratio

	ByDay map[int]*DayStats

	DelayByLen map[int]*stats.Sample // path length -> CDN delay
	LenCounts  map[int]int
	LenIntra   map[int]int
	LenInter   map[int]int
	IntraDelay *stats.Sample
	InterDelay *stats.Sample

	// RespByHour: Path Decision response time by hour of day (LiveNet).
	RespByHour *stats.TimeSeries
	// HitByHour: local path hit ratio by hour-of-run (first 7 days give
	// Figure 10(b)'s week view).
	HitByHour map[int]*stats.Ratio
	// FirstPktByHour: first-packet delay (ms) by hour-of-run.
	FirstPktByHour *stats.TimeSeries
	// LossByHour: average link loss %% by hour of day (Figure 13).
	LossByHour *stats.TimeSeries
	// StartupByDelay: fast-startup ratio bucketed by streaming delay
	// (Figure 9 buckets).
	StartupByDelay map[string]*stats.Ratio
	LastResort     stats.Ratio
	LongChains     int // views whose actual path exceeded the requested length

	BrainMetrics brain.Metrics
	// GlobalView is the Brain's end-of-run fleet-health aggregate
	// (LiveNet engine only; zero value for the CDN baseline).
	GlobalView brain.GlobalView

	// CohortQoE holds the run's pooled QoE aggregates over all represented
	// viewers (cohort engines only; nil on per-viewer runs). When set,
	// Views counts represented viewers and the Sample fields above hold
	// only the exactly-simulated tracer cohort.
	CohortQoE *client.Cohort
	// TracerViews is the number of exactly-simulated views folded into
	// CohortQoE (stream establishers plus sampled tracers).
	TracerViews int
}

func newMacroResult(sys System) *MacroResult {
	return &MacroResult{
		System:         sys,
		CDNDelayMs:     &stats.Sample{},
		PathLen:        &stats.Sample{},
		Streaming:      &stats.Sample{},
		StallCounts:    make(map[int]int),
		ByDay:          make(map[int]*DayStats),
		DelayByLen:     make(map[int]*stats.Sample),
		LenCounts:      make(map[int]int),
		LenIntra:       make(map[int]int),
		LenInter:       make(map[int]int),
		IntraDelay:     &stats.Sample{},
		InterDelay:     &stats.Sample{},
		RespByHour:     stats.NewTimeSeries(),
		HitByHour:      make(map[int]*stats.Ratio),
		FirstPktByHour: stats.NewTimeSeries(),
		LossByHour:     stats.NewTimeSeries(),
		StartupByDelay: make(map[string]*stats.Ratio),
		LastResort:     stats.Ratio{},
	}
}

// Figure 9's streaming-delay buckets.
var delayBuckets = []struct {
	hi    float64 // ms, exclusive
	label string
}{
	{500, "(0,500]"},
	{700, "(500,700]"},
	{1000, "(700,1000]"},
	{1500, "(1000,1500]"},
	{1e18, "(1500,inf]"},
}

func bucketLabel(ms float64) string {
	for _, b := range delayBuckets {
		if ms <= b.hi {
			return b.label
		}
	}
	return delayBuckets[len(delayBuckets)-1].label
}

// departure is a scheduled view end.
type departure struct {
	at   time.Duration
	site int
	sid  uint32
}

type depHeap []departure

func (h depHeap) Len() int           { return len(h) }
func (h depHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h depHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x any)        { *h = append(*h, x.(departure)) }
func (h *depHeap) Pop() any          { old := *h; n := len(old); d := old[n-1]; *h = old[:n-1]; return d }

// Fingerprint returns a canonical string identity for the run this
// config describes: two configs with equal fingerprints produce
// bit-identical MacroResults (runs are deterministic in the config), so
// the eval session memoizes RunMacro by this key.
func (c MacroConfig) Fingerprint() string {
	return fmt.Sprintf("%+v", c.withDefaults())
}

// RunMacro executes a session-level evaluation run.
func RunMacro(cfg MacroConfig) *MacroResult {
	cfg = cfg.withDefaults()
	switch cfg.System {
	case SystemLiveNet:
		if cfg.CohortViewers {
			return runMacroLiveNetCohort(cfg)
		}
		return runMacroLiveNet(cfg)
	case SystemHier:
		if cfg.CohortViewers {
			return runMacroHierCohort(cfg)
		}
		return runMacroHier(cfg)
	}
	panic(fmt.Sprintf("core: unknown system %q", cfg.System))
}

// --- shared environment ---

type macroEnv struct {
	cfg   MacroConfig
	src   *sim.Source
	rng   *sim.Rand
	world *geo.World
	gen   *workload.Generator
	res   *MacroResult

	chProducer []int // channel rank -> producer site
	active     int
	deps       depHeap
	horizon    time.Duration

	uniquePaths map[int]map[string]struct{} // day -> distinct paths

	// Cohort-engine state: when coh is non-nil, recordView also folds
	// each exactly-simulated view into the pooled aggregates, tagged with
	// the duration (curViewSecs) the engine drew for it. pktFactor scales
	// the stall model's packet rate for reduced-bitrate rungs (always 1
	// on per-viewer runs).
	coh         *client.Cohort
	curViewSecs float64
	pktFactor   float64
}

func newMacroEnv(cfg MacroConfig, sys System) *macroEnv {
	src := sim.NewSource(cfg.Seed)
	gcfg := geo.DefaultConfig()
	gcfg.NumSites = cfg.Sites
	world := geo.Build(gcfg, src.Stream("geo"))
	gen := workload.NewGenerator(cfg.Workload, src.Stream("workload"))
	horizon := time.Duration(cfg.Days) * 24 * time.Hour
	if cfg.Hours > 0 {
		horizon = time.Duration(cfg.Hours) * time.Hour
	}
	e := &macroEnv{
		cfg:       cfg,
		src:       src,
		rng:       src.Stream("macro"),
		world:     world,
		gen:       gen,
		res:       newMacroResult(sys),
		horizon:   horizon,
		pktFactor: 1,
	}
	for _, ch := range gen.Channels() {
		e.chProducer = append(e.chProducer, world.NearestSite(ch.Lat, ch.Lon))
	}
	return e
}

// linkLoss is the diurnal per-link loss rate (Figure 13's pattern).
func (e *macroEnv) linkLoss(a, b int, t time.Duration) float64 {
	base := e.world.BaseLoss(a, b)
	mid := (e.world.Sites[a].Lon + e.world.Sites[b].Lon) / 2
	return base * (0.4 + 1.8*geo.DiurnalFactor(geo.LocalHour(t, mid)))
}

func (e *macroEnv) day(t time.Duration) int       { return workload.Day(t) }
func (e *macroEnv) hourOfRun(t time.Duration) int { return int(t / time.Hour) }

func (e *macroEnv) dayStats(t time.Duration) *DayStats {
	d := e.day(t)
	ds := e.res.ByDay[d]
	if ds == nil {
		ds = newDayStats()
		e.res.ByDay[d] = ds
	}
	return ds
}

// clientProfile models last-mile quality: most viewers are on good
// access, a tail is on mobile networks with loss and bandwidth dips
// (§5.2 motivates proactive frame dropping with exactly this tail).
type clientProfile struct {
	rttMs   float64
	loss    float64
	dipRate float64 // bandwidth dips per second
}

func (e *macroEnv) drawClient() clientProfile {
	if e.rng.Bernoulli(0.10) { // mobile
		return clientProfile{
			rttMs:   20 + e.rng.Float64()*60,
			loss:    0.004 + e.rng.Float64()*0.026,
			dipRate: 0.004,
		}
	}
	return clientProfile{
		rttMs:   8 + e.rng.Float64()*30,
		loss:    e.rng.Float64() * 0.004,
		dipRate: 0.0002,
	}
}

// stallsFor samples a view's stall count from the loss/recovery model:
//
//   - CDN path contribution: per-packet residual loss after recovery.
//     LiveNet recovers per hop within ~NACK interval + hop RTT, so the
//     residual is quadratic in hop loss (a retransmission must also be
//     lost) scaled by how much of the play buffer the recovery consumes.
//     Hier (RTMP over TCP) turns every loss into a head-of-line stall of
//     ~1.5 RTT, which drains the buffer on long-RTT hops.
//   - Last-mile contribution: loss recovered from the edge (both
//     systems), residual quadratic.
//   - Bandwidth dips: LiveNet's consumer-side frame dropping and bitrate
//     down-switch absorb most dips; Hier clients stall.
func (e *macroEnv) stallsFor(sys System, dur time.Duration, path []int, cp clientProfile, t time.Duration) int {
	return e.poisson(e.stallMean(sys, dur.Seconds(), path, cp, t))
}

// stallMean is the expected stall count stallsFor samples around; the
// cohort engines use it directly as the batch expectation. e.pktFactor
// scales the packet rate for reduced-bitrate rungs (1 on per-viewer runs).
func (e *macroEnv) stallMean(sys System, secs float64, path []int, cp clientProfile, t time.Duration) float64 {
	const pktRate = 130.0 // packets/s at ~1.5 Mbps
	perPkt := 0.0
	for i := 0; i+1 < len(path); i++ {
		rho := e.linkLoss(path[i], path[i+1], t)
		rttMs := float64(e.world.RTT(path[i], path[i+1])) / float64(time.Millisecond)
		if sys == SystemLiveNet {
			// Per-hop NACK recovery retries within the play buffer: the
			// residual is ~cubic in hop loss (2–3 recovery rounds fit in
			// 300 ms), scaled up on long-RTT hops where fewer rounds fit.
			perPkt += rho * rho * rho * (1 + rttMs/150) * 2
		} else {
			// RTMP/TCP: every loss head-of-line-blocks the hop for
			// ~1.5 RTT; long-RTT hops drain the 300 ms buffer.
			perPkt += rho * min(1, 1.5*rttMs/300) * 0.001
		}
	}
	// Last mile: NACK from the consumer (LiveNet) / TCP from the edge
	// (Hier); 2–3 recovery rounds fit the buffer on typical access RTTs.
	perPkt += cp.loss * cp.loss * cp.loss * (1 + cp.rttMs/150) * 2
	// Bandwidth dips: LiveNet's consumer-side frame dropping and bitrate
	// down-switch absorb most; Hier clients rebuffer.
	dipStall := 0.65
	if sys == SystemLiveNet {
		dipStall = 0.26
	}
	return secs*pktRate*e.pktFactor*perPkt + secs*cp.dipRate*dipStall
}

func (e *macroEnv) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Small means dominate here; Knuth in log space avoids underflow.
	l := -mean
	k, logp := 0, 0.0
	for {
		u := e.rng.Float64()
		for u == 0 {
			u = e.rng.Float64()
		}
		logp += math.Log(u)
		if logp <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// recordView folds one completed view decision into the aggregates.
func (e *macroEnv) recordView(t time.Duration, path []int, cdnMs float64, firstPktMs float64,
	localHit bool, intl bool, stalls int, startupMs float64, lastResort bool, longChain bool) {
	res := e.res
	res.Views++
	pathLen := len(path) - 1
	res.CDNDelayMs.Add(cdnMs)
	res.PathLen.Add(float64(pathLen))

	// Streaming delay: encode + first/last-mile edge transmission
	// (~300 ms total per §6.2) + player buffer (300 ms) + decode, plus
	// the CDN path delay. The fixed part varies per view (encoder
	// settings, buffer occupancy at sampling time, device decode speed),
	// which is what spreads the paper's Figure 8(a) CDF below 500 ms.
	fixed := 740 + e.rng.Normal(0, 120)
	if fixed < 340 {
		fixed = 340
	}
	streaming := fixed + cdnMs*(1+e.rng.Normal(0, 0.03))
	if streaming < cdnMs {
		streaming = cdnMs
	}
	res.Streaming.Add(streaming)

	res.StallCounts[clampStalls(stalls)]++
	res.ZeroStall.Observe(stalls == 0)
	fast := startupMs <= 1000
	res.FastStart.Observe(fast)

	ds := e.dayStats(t)
	ds.CDNDelayMs.Add(cdnMs)
	ds.PathLen.Add(float64(pathLen))
	ds.Streaming.Add(streaming)
	ds.ZeroStall.Observe(stalls == 0)
	ds.FastStart.Observe(fast)

	s := res.DelayByLen[pathLen]
	if s == nil {
		s = &stats.Sample{}
		res.DelayByLen[pathLen] = s
	}
	s.Add(cdnMs)
	res.LenCounts[pathLen]++
	if intl {
		res.LenInter[pathLen]++
		res.InterDelay.Add(cdnMs)
	} else {
		res.LenIntra[pathLen]++
		res.IntraDelay.Add(cdnMs)
	}

	hr := e.hourOfRun(t)
	hit := res.HitByHour[hr]
	if hit == nil {
		hit = &stats.Ratio{}
		res.HitByHour[hr] = hit
	}
	hit.Observe(localHit)
	res.FirstPktByHour.Add(hr, firstPktMs)

	b := res.StartupByDelay[bucketLabel(streaming)]
	if b == nil {
		b = &stats.Ratio{}
		res.StartupByDelay[bucketLabel(streaming)] = b
	}
	b.Observe(fast)
	res.LastResort.Observe(lastResort)
	if longChain {
		res.LongChains++
	}

	// Cohort engines fold every exactly-simulated view (establishers and
	// tracers) into the pooled aggregates too, so the weighted totals
	// cover all represented viewers.
	if e.coh != nil {
		stallSecs := float64(stalls) * stallEventSecs
		e.coh.AddViewer(e.curViewSecs, cdnMs, float64(pathLen), streaming, startupMs, stalls, stallSecs)
		if ds.Cohort == nil {
			ds.Cohort = &client.Cohort{}
		}
		ds.Cohort.AddViewer(e.curViewSecs, cdnMs, float64(pathLen), streaming, startupMs, stalls, stallSecs)
	}
}

// stallEventSecs is the modeled rebuffer length of one stall event: the
// playback timeline shifts by roughly half the 300 ms buffer plus the
// lateness that triggered the stall (client.Viewer's rebuffer allowance).
const stallEventSecs = 0.6

func clampStalls(s int) int {
	if s > 5 {
		return 5
	}
	return s
}

// sampleLossByHour records Figure 13's hourly average link loss.
func (e *macroEnv) sampleLossByHour(t time.Duration) {
	hour := workload.Hour(t)
	n := len(e.world.Sites)
	// Sample a subset of links for speed; deterministic stride.
	total, count := 0.0, 0
	for i := 0; i < n; i += 3 {
		for j := 1; j < n; j += 5 {
			if i == j {
				continue
			}
			total += e.linkLoss(i, j, t)
			count++
		}
	}
	if count > 0 {
		e.res.LossByHour.Add(hour, total/float64(count)*100)
	}
}
