package core

import (
	"testing"
	"time"

	"livenet/internal/brain"
	"livenet/internal/media"
	"livenet/internal/workload"
)

func TestClusterEndToEnd(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 1, Sites: 10})
	defer c.Close()

	// Broadcaster in the home market.
	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[:1])
	bc.Start()
	c.Run(2 * time.Second)

	// The producer registered the stream with the Brain.
	if p, ok := c.Brain.(*brain.Brain).Producer(bc.StreamID(0)); !ok || p != bc.Producer {
		t.Fatalf("SIB producer = %d ok=%v, want %d", p, ok, bc.Producer)
	}

	// A viewer whose nearest site differs from the producer (pick a
	// location in another region so the path has at least one hop).
	viewerLat, viewerLon := 52.0, -1.0 // GB
	if c.World.NearestSite(viewerLat, viewerLon) == bc.Producer {
		t.Fatal("test setup: viewer maps to the producer site")
	}
	v := c.NewViewerAt(viewerLat, viewerLon, bc.StreamID(0))
	c.Run(8 * time.Second)

	s := v.Stats()
	if !s.Started {
		t.Fatal("viewer playback never started")
	}
	if s.FramesPlayed < 50 {
		t.Fatalf("frames played = %d", s.FramesPlayed)
	}
	if len(s.StreamingDelay) == 0 {
		t.Fatal("no streaming delay samples")
	}
	if v.LocalHit {
		t.Fatal("first viewer cannot be a local hit")
	}

	// Second viewer at the same consumer location: local hit.
	v2 := c.NewViewerAt(viewerLat, viewerLon, bc.StreamID(0))
	if !v2.LocalHit {
		t.Fatal("co-located second viewer should be a local hit")
	}
	c.Run(4 * time.Second)
	if !v2.Stats().Started {
		t.Fatal("local-hit viewer never started")
	}

	// Discovery populated the Brain's view (reports are per minute).
	c.Run(60 * time.Second)
	g := c.Brain.(*brain.Brain).View()
	if g.Link(0, 1) == nil {
		t.Fatal("discovery never reported links")
	}

	// Response times were recorded.
	if c.RespTimes.N() == 0 {
		t.Fatal("no path-decision response times recorded")
	}

	c.Detach(v)
	c.Detach(v2)
	c.Run(time.Second)
}

func TestClusterDeterminism(t *testing.T) {
	run := func() (int, float64) {
		c := NewCluster(ClusterConfig{Seed: 42, Sites: 8})
		defer c.Close()
		bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[:1])
		bc.Start()
		c.Run(time.Second)
		v := c.NewViewerAt(39.9, 116.4, bc.StreamID(0))
		c.Run(5 * time.Second)
		s := v.Stats()
		return s.FramesPlayed, float64(s.StartupDelay)
	}
	f1, d1 := run()
	f2, d2 := run()
	if f1 != f2 || d1 != d2 {
		t.Fatalf("nondeterministic cluster: (%d,%v) vs (%d,%v)", f1, d1, f2, d2)
	}
}

func macroPair(t *testing.T, seed int64) (*MacroResult, *MacroResult) {
	t.Helper()
	mk := func(sys System) *MacroResult {
		cfg := MacroConfig{Seed: seed, Days: 2, Sites: 32, System: sys}
		cfg.Workload.PeakViewsPerSec = 0.5
		cfg.Workload.Channels = 80
		return RunMacro(cfg)
	}
	return mk(SystemLiveNet), mk(SystemHier)
}

func TestMacroLiveNetBeatsHier(t *testing.T) {
	ln, hr := macroPair(t, 1)
	if ln.Views == 0 || hr.Views == 0 {
		t.Fatal("no views simulated")
	}
	if ln.Views != hr.Views {
		t.Fatalf("workloads differ: %d vs %d views", ln.Views, hr.Views)
	}
	if ln.CDNDelayMs.Median() >= hr.CDNDelayMs.Median() {
		t.Fatalf("CDN delay: LiveNet %v >= Hier %v", ln.CDNDelayMs.Median(), hr.CDNDelayMs.Median())
	}
	// The headline claim: LiveNet roughly halves the CDN delay.
	if ratio := hr.CDNDelayMs.Median() / ln.CDNDelayMs.Median(); ratio < 1.6 {
		t.Fatalf("CDN delay ratio = %v, want >= 1.6 (paper: ~2.1)", ratio)
	}
	if ln.PathLen.Median() != 2 || hr.PathLen.Median() != 4 {
		t.Fatalf("path lengths: %v vs %v, want 2 vs 4", ln.PathLen.Median(), hr.PathLen.Median())
	}
	if ln.Streaming.Median() >= hr.Streaming.Median() {
		t.Fatal("streaming delay should improve")
	}
	if ln.ZeroStall.Value() <= hr.ZeroStall.Value() {
		t.Fatalf("0-stall: LiveNet %v <= Hier %v", ln.ZeroStall.Percent(), hr.ZeroStall.Percent())
	}
	if ln.FastStart.Value() <= hr.FastStart.Value() {
		t.Fatalf("fast startup: LiveNet %v <= Hier %v", ln.FastStart.Percent(), hr.FastStart.Percent())
	}
}

func TestMacroQoEInPaperBallpark(t *testing.T) {
	ln, hr := macroPair(t, 2)
	if p := ln.ZeroStall.Percent(); p < 95 || p > 99.9 {
		t.Fatalf("LiveNet 0-stall = %v%%, want ~98", p)
	}
	if p := hr.ZeroStall.Percent(); p < 92 || p > 98 {
		t.Fatalf("Hier 0-stall = %v%%, want ~95", p)
	}
	if p := ln.FastStart.Percent(); p < 91 || p > 98.5 {
		t.Fatalf("LiveNet fast startup = %v%%, want ~95", p)
	}
	if p := hr.FastStart.Percent(); p < 85 || p > 95 {
		t.Fatalf("Hier fast startup = %v%%, want ~92", p)
	}
	// 2-hop paths dominate LiveNet (paper: 92%).
	total := 0
	for _, c := range ln.LenCounts {
		total += c
	}
	if frac := float64(ln.LenCounts[2]) / float64(total); frac < 0.5 {
		t.Fatalf("2-hop fraction = %v, want dominant", frac)
	}
}

func TestMacroDeterminism(t *testing.T) {
	a, _ := macroPair(t, 3)
	b, _ := macroPair(t, 3)
	if a.Views != b.Views || a.CDNDelayMs.Median() != b.CDNDelayMs.Median() ||
		a.ZeroStall != b.ZeroStall {
		t.Fatal("macro run not deterministic")
	}
}

func TestMacroGoPCacheAblation(t *testing.T) {
	base := MacroConfig{Seed: 4, Days: 1, Sites: 24, System: SystemLiveNet}
	base.Workload.PeakViewsPerSec = 0.5
	on := RunMacro(base)
	off := base
	off.DisableGoPCache = true
	offRes := RunMacro(off)
	if offRes.FastStart.Value() >= on.FastStart.Value() {
		t.Fatalf("disabling the GoP cache should hurt startup: %v vs %v",
			offRes.FastStart.Percent(), on.FastStart.Percent())
	}
	// The drop should be substantial (startup waits for the next I frame).
	if on.FastStart.Value()-offRes.FastStart.Value() < 0.05 {
		t.Fatalf("GoP cache ablation too weak: %v -> %v",
			on.FastStart.Percent(), offRes.FastStart.Percent())
	}
}

func TestMacroPrefetchAblation(t *testing.T) {
	base := MacroConfig{Seed: 5, Days: 1, Sites: 24, System: SystemLiveNet}
	base.Workload.PeakViewsPerSec = 0.5
	on := RunMacro(base)
	off := base
	off.DisablePrefetch = true
	offRes := RunMacro(off)
	hitRate := func(r *MacroResult) float64 {
		hits, total := 0, 0
		for _, h := range r.HitByHour {
			hits += h.Hits
			total += h.Total
		}
		return float64(hits) / float64(total)
	}
	if hitRate(offRes) >= hitRate(on) {
		t.Fatalf("disabling prefetch should lower the hit ratio: %v vs %v",
			hitRate(offRes), hitRate(on))
	}
}

func TestMacroDayStatsAndConcurrency(t *testing.T) {
	cfg := MacroConfig{Seed: 6, Days: 2, Sites: 24, System: SystemLiveNet}
	cfg.Workload.PeakViewsPerSec = 0.5
	res := RunMacro(cfg)
	if len(res.ByDay) != 2 {
		t.Fatalf("ByDay has %d entries", len(res.ByDay))
	}
	for d, ds := range res.ByDay {
		if ds.CDNDelayMs.N() == 0 || ds.PeakConcurrency == 0 || ds.UniquePaths == 0 {
			t.Fatalf("day %d stats empty: %+v", d, ds)
		}
	}
}

func TestMacroFlashCrowdDoublesPeak(t *testing.T) {
	cfg := MacroConfig{Seed: 7, Days: 2, Sites: 24, System: SystemLiveNet}
	cfg.Workload.PeakViewsPerSec = 0.5
	cfg.Workload.Flash = []workload.FlashEvent{{Start: 30 * time.Hour, End: 40 * time.Hour, Multiplier: 2}}
	res := RunMacro(cfg)
	d0 := res.ByDay[0].PeakConcurrency
	d1 := res.ByDay[1].PeakConcurrency
	if float64(d1) < 1.5*float64(d0) {
		t.Fatalf("flash day peak %d not ~2x normal day %d", d1, d0)
	}
}

func TestMacroInternationalSlower(t *testing.T) {
	ln, _ := macroPair(t, 8)
	if ln.InterDelay.Median() <= ln.IntraDelay.Median() {
		t.Fatalf("international CDN delay %v should exceed intra %v",
			ln.InterDelay.Median(), ln.IntraDelay.Median())
	}
}

func TestMacroLossDiurnalUnderCap(t *testing.T) {
	ln, _ := macroPair(t, 9)
	for _, h := range ln.LossByHour.Buckets() {
		if avg := ln.LossByHour.Bucket(h).Mean(); avg > 0.175 {
			t.Fatalf("hour %d avg loss %v%% exceeds the paper's 0.175%% cap", h, avg)
		}
	}
}

func TestClusterPrefetchPopular(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 11, Sites: 10})
	defer c.Close()
	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[:1])
	bc.Start()
	c.Run(2 * time.Second)

	// The Brain pushes paths for the popular stream to every node.
	if err := c.PrefetchPopular(bc.StreamID(0)); err != nil {
		t.Fatal(err)
	}
	c.Run(3 * time.Second) // establishment + GoP priming everywhere

	// The first viewer at a far-away consumer is now a local hit with no
	// Brain lookup from that node.
	viewerLat, viewerLon := 52.0, -1.0
	consumer := c.World.NearestSite(viewerLat, viewerLon)
	if consumer == bc.Producer {
		t.Skip("world too small: viewer maps to producer")
	}
	before := c.Nodes[consumer].Metrics().PathLookups
	v := c.NewViewerAt(viewerLat, viewerLon, bc.StreamID(0))
	if !v.LocalHit {
		t.Fatal("prefetched stream should be a local hit for the first viewer")
	}
	if got := c.Nodes[consumer].Metrics().PathLookups; got != before {
		t.Fatalf("prefetch should avoid lookups: %d -> %d", before, got)
	}
	c.Run(3 * time.Second)
	if !v.Stats().Started {
		t.Fatal("prefetched viewer never started")
	}
	if err := c.PrefetchPopular(99999); err == nil {
		t.Fatal("prefetching an unknown stream should error")
	}
}

func TestClusterBitrateLadderRegistered(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 12, Sites: 8})
	defer c.Close()
	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions)
	if lower, ok := c.lowerRendition[bc.StreamID(0)]; !ok || lower != bc.StreamID(1) {
		t.Fatalf("720p should map down to 480p: %d %v", lower, ok)
	}
	if lower, ok := c.lowerRendition[bc.StreamID(1)]; !ok || lower != bc.StreamID(2) {
		t.Fatalf("480p should map down to 360p: %d %v", lower, ok)
	}
	if _, ok := c.lowerRendition[bc.StreamID(2)]; ok {
		t.Fatal("the lowest rendition must not map further down")
	}
}

func TestMacroSparseOverlay(t *testing.T) {
	mk := func() *MacroResult {
		cfg := MacroConfig{Seed: 6, Days: 1, Sites: 24, System: SystemLiveNet, MaxPeers: 6}
		cfg.Workload.PeakViewsPerSec = 0.5
		cfg.Workload.Channels = 60
		return RunMacro(cfg)
	}
	r := mk()
	if r.Views == 0 {
		t.Fatal("no views simulated")
	}
	if r.CDNDelayMs.Median() <= 0 {
		t.Fatalf("CDN delay median = %v", r.CDNDelayMs.Median())
	}
	if r.BrainMetrics.Lookups == 0 {
		t.Fatal("brain never consulted")
	}
	b := mk()
	if r.Views != b.Views || r.CDNDelayMs.Median() != b.CDNDelayMs.Median() ||
		r.ZeroStall != b.ZeroStall || r.BrainMetrics != b.BrainMetrics {
		t.Fatal("sparse macro run not deterministic")
	}
}

func TestClusterSparseOverlay(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 1, Sites: 10, MaxPeers: 3})
	defer c.Close()

	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[:1])
	bc.Start()
	c.Run(2 * time.Second)
	v := c.NewViewerAt(52.0, -1.0, bc.StreamID(0))
	c.Run(8 * time.Second)
	if s := v.Stats(); !s.Started || s.FramesPlayed < 50 {
		t.Fatalf("sparse-overlay viewer: started=%v frames=%d", s.Started, s.FramesPlayed)
	}

	// Discovery must only ever report the sparse link set, which is well
	// below the 90-link full mesh.
	c.Run(90 * time.Second)
	links := 0
	view := c.Brain.(*brain.Brain).View()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i != j && view.Link(i, j) != nil {
				links++
			}
		}
	}
	want := 0
	for i := 0; i < 10; i++ {
		want += len(c.overlayRows[i])
	}
	if links == 0 || links > want {
		t.Fatalf("reported links = %d, want in (0, %d]", links, want)
	}
	if want >= 90 {
		t.Fatalf("overlay not sparse: %d links", want)
	}
}
