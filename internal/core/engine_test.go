package core

import (
	"testing"
	"time"

	"livenet/internal/brain"
	"livenet/internal/brainfed"
)

// TestRoutingEngineFollowsTheOverlay pins the engine each deployment ends
// up on now that the Brain selects it from its view: what used to be set
// by hand — dense for a full-mesh Cluster or RunMacro, arena Yen for a
// MaxPeers overlay and for every federation shard — must come out the
// same.
func TestRoutingEngineFollowsTheOverlay(t *testing.T) {
	cluster := func(cfg ClusterConfig) *Cluster {
		cfg.Seed, cfg.Sites, cfg.DiscoveryInterval = 1, 24, 10*time.Second
		c := NewCluster(cfg)
		t.Cleanup(c.Close)
		c.Run(11 * time.Second) // one Global Discovery round
		return c
	}
	if c := cluster(ClusterConfig{}); !c.Brain.(*brain.Brain).DenseRouting() {
		t.Error("full-mesh cluster: want the dense enumerator")
	}
	if c := cluster(ClusterConfig{MaxPeers: 8}); c.Brain.(*brain.Brain).DenseRouting() {
		t.Error("MaxPeers overlay: want arena Yen")
	}
	ring := cluster(ClusterConfig{Replicas: 3}).Brain.(*brain.Ring)
	for i := 0; i < ring.Replicas(); i++ {
		if !ring.Replica(i).Local.DenseRouting() {
			t.Errorf("full-mesh ring, replica %d: want the dense enumerator", i)
		}
	}
	fed := cluster(ClusterConfig{Regions: 3}).Brain.(*brainfed.Federation)
	for s := 0; s < fed.Shards(); s++ {
		if fed.Shard(s).DenseRouting() {
			t.Errorf("federation shard %d sees a regional view: want arena Yen", s)
		}
	}

	// The macro fabric reports its first Global Discovery round inside
	// newLNFabric, before any lookup.
	fabric := func(cfg MacroConfig) brain.Service {
		cfg.Seed, cfg.Days, cfg.Sites, cfg.System = 1, 1, 24, SystemLiveNet
		f := newLNFabric(newMacroEnv(cfg.withDefaults(), SystemLiveNet))
		t.Cleanup(f.br.Close)
		return f.br
	}
	if !fabric(MacroConfig{}).(*brain.Brain).DenseRouting() {
		t.Error("full-mesh macro run: want the dense enumerator")
	}
	if fabric(MacroConfig{MaxPeers: 6}).(*brain.Brain).DenseRouting() {
		t.Error("MaxPeers macro run: want arena Yen")
	}
	mfed := fabric(MacroConfig{Regions: 3}).(*brainfed.Federation)
	for s := 0; s < mfed.Shards(); s++ {
		if mfed.Shard(s).DenseRouting() {
			t.Errorf("macro federation shard %d: want arena Yen", s)
		}
	}
}
