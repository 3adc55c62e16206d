package core

import (
	"testing"
	"time"

	"livenet/internal/brainfed"
	"livenet/internal/media"
)

// TestClusterFederatedEndToEnd drives the packet-level cluster with the
// Brain federated into per-region shards: streams register with their
// owning shard, viewers in other regions are served via stitched paths,
// and playback works exactly as with the monolith.
func TestClusterFederatedEndToEnd(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 1, Sites: 12, Regions: 3, MaxPeers: 4, Telemetry: true})
	defer c.Close()
	fed, ok := c.Brain.(*brainfed.Federation)
	if !ok {
		t.Fatalf("Regions > 0 built a %T, want a federated Brain", c.Brain)
	}
	if got := fed.Shards(); got != 3 {
		t.Fatalf("shards = %d, want 3", got)
	}

	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[:1])
	bc.Start()
	c.Run(2 * time.Second)

	if p, ok := fed.Producer(bc.StreamID(0)); !ok || p != bc.Producer {
		t.Fatalf("federated SIB producer = %d ok=%v, want %d", p, ok, bc.Producer)
	}

	// A viewer whose nearest site lives in a different shard than the
	// producer, so the lookup exercises cross-shard stitching.
	viewerLat, viewerLon := 52.0, -1.0 // GB
	consumer := c.World.NearestSite(viewerLat, viewerLon)
	if fed.ShardOf(consumer) == fed.ShardOf(bc.Producer) {
		t.Fatal("test setup: viewer maps into the producer's shard")
	}
	v := c.NewViewerAt(viewerLat, viewerLon, bc.StreamID(0))
	c.Run(8 * time.Second)
	if s := v.Stats(); !s.Started || s.FramesPlayed < 50 {
		t.Fatalf("federated viewer: started=%v frames=%d", s.Started, s.FramesPlayed)
	}

	snap := c.BrainTel.Snapshot()
	if snap.Counters["brainfed.lookups_cross"] == 0 {
		t.Fatal("cross-shard lookup not counted")
	}

	// Discovery reports fan into the owning shards only; after a few
	// rounds every shard has heard from its own nodes.
	c.Run(2 * time.Minute)
	fan := fed.ReportFanIn()
	for s, n := range fan {
		if n == 0 {
			t.Fatalf("shard %d received no discovery reports", s)
		}
	}
}

// TestClusterFederatedShardPartitionFallback is the PR acceptance check:
// a single-shard partition must not take down cross-shard viewing.
// Warm pairs keep playing from the stitch cache, and after the heal the
// federation serves fresh lookups again.
func TestClusterFederatedShardPartitionFallback(t *testing.T) {
	c := NewCluster(ClusterConfig{Seed: 3, Sites: 12, Regions: 3, MaxPeers: 4, Telemetry: true})
	defer c.Close()

	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[:1])
	bc.Start()
	c.Run(2 * time.Second)

	viewerLat, viewerLon := 52.0, -1.0 // GB: different shard from the producer
	consumer := c.World.NearestSite(viewerLat, viewerLon)
	fed := c.Brain.(*brainfed.Federation)
	srcShard := fed.ShardOf(bc.Producer)
	if fed.ShardOf(consumer) == srcShard {
		t.Fatal("test setup: viewer maps into the producer's shard")
	}
	v1 := c.NewViewerAt(viewerLat, viewerLon, bc.StreamID(0))
	c.Run(8 * time.Second)
	if !v1.Stats().Started {
		t.Fatal("pre-partition viewer never started")
	}
	c.Detach(v1)
	c.Run(time.Second)

	// Cut the producer's shard off from the front-end. The (producer,
	// consumer) stitch is already cached, so a new viewer at the same
	// site must still get a path and start playback.
	c.PartitionReplica(srcShard)
	v2 := c.NewViewerAt(viewerLat, viewerLon, bc.StreamID(0))
	c.Run(8 * time.Second)
	if s := v2.Stats(); !s.Started || s.FramesPlayed < 50 {
		t.Fatalf("viewer during shard partition: started=%v frames=%d", s.Started, s.FramesPlayed)
	}
	snap := c.BrainTel.Snapshot()
	if snap.Counters["brainfed.fallback_cached"] == 0 {
		t.Fatal("cached-stitch fallback not exercised during partition")
	}
	if down := snap.Gauges["brainfed.shards_down"]; down != 1 {
		t.Fatalf("brainfed.shards_down = %v during partition, want 1", down)
	}

	// Heal and verify fresh cross-shard lookups work again.
	c.HealReplica(srcShard)
	v3 := c.NewViewerAt(48.8, 2.3, bc.StreamID(0)) // FR
	c.Run(8 * time.Second)
	if s := v3.Stats(); !s.Started {
		t.Fatalf("post-heal viewer never started: %+v", s)
	}
	if down := c.BrainTel.Snapshot().Gauges["brainfed.shards_down"]; down != 0 {
		t.Fatalf("brainfed.shards_down = %v after heal, want 0", down)
	}
}

// TestMacroFederatedBrain runs the session-level simulator with the
// federated control plane and checks the run is live, deterministic, and
// actually consulted the shards.
func TestMacroFederatedBrain(t *testing.T) {
	mk := func() *MacroResult {
		cfg := MacroConfig{Seed: 6, Days: 1, Sites: 24, System: SystemLiveNet, MaxPeers: 6, Regions: 3}
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
		t.Fatal("federated brain never consulted")
	}
	if r.GlobalView.Links == 0 {
		t.Fatal("merged GlobalView has no links")
	}
	b := mk()
	if r.Views != b.Views || r.CDNDelayMs.Median() != b.CDNDelayMs.Median() ||
		r.ZeroStall != b.ZeroStall || r.BrainMetrics != b.BrainMetrics {
		t.Fatal("federated macro run not deterministic")
	}
}
