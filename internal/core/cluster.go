// Package core assembles the full LiveNet system. It offers two
// execution granularities over the same control-plane code:
//
//   - Cluster: a packet-level deployment on the network emulator — real
//     nodes running the fast–slow path, a real Streaming Brain, real
//     broadcasters and viewers. Used by the micro experiments, the
//     examples, and the transport ablations.
//   - Macro: a session-level simulator for the 20-day evaluation runs
//     (Table 1–3, Figures 2 and 8–14), which executes the real Brain,
//     subscription/grafting and caching logic per viewing session but
//     abstracts the per-RTP-packet data plane into a calibrated delay/
//     loss model (see macro.go).
package core

import (
	"errors"
	"time"

	"livenet/internal/brain"
	"livenet/internal/brainfed"
	"livenet/internal/client"
	"livenet/internal/geo"
	"livenet/internal/media"
	"livenet/internal/netem"
	"livenet/internal/node"
	"livenet/internal/sim"
	"livenet/internal/stats"
	"livenet/internal/telemetry"
)

// ErrBrainUnreachable is reported to a consumer node when every Brain
// replica failed to answer its path lookup; the node falls back to its
// local path cache (§4.3).
var ErrBrainUnreachable = errors.New("core: no Brain replica reachable")

// ClusterConfig parameterizes a packet-level deployment.
type ClusterConfig struct {
	Seed  int64
	Sites int
	// MaxPeers > 0 builds a sparse overlay instead of the full mesh: each
	// site gets netem links to its MaxPeers nearest peers by RTT plus every
	// IXP site (symmetrized), and Global Discovery probes only those links.
	// 0 keeps the full mesh.
	MaxPeers int
	// OverlayBandwidthBps is the per-link overlay capacity (default 100 Mbps).
	OverlayBandwidthBps float64
	// LastMileBandwidthBps is the client access capacity (default 20 Mbps).
	LastMileBandwidthBps float64
	// LossScale multiplies the geo base loss (1 = paper-like near-lossless).
	LossScale float64
	// DiurnalLoss applies the Figure 13 diurnal pattern to link loss.
	DiurnalLoss bool
	// BurstLoss layers per-link Gilbert–Elliott bursty episodes on top of
	// the base (or diurnal) loss, so loss arrives in bursts rather than as
	// independent drops (each link keeps its own Markov chain).
	BurstLoss bool
	// DiscoveryInterval is the node metrics reporting period (default 1 m).
	DiscoveryInterval time.Duration
	// Replicas geo-replicates the Streaming Brain over this many Paxos
	// replicas (§7.1); 0 or 1 keeps a single instance. Consumers query
	// their home replica and fail over to the next live one on timeout.
	Replicas int
	// Regions > 0 federates the Streaming Brain into per-region shards
	// (internal/brainfed): each shard ingests only its own region's
	// discovery reports and cross-region lookups stitch shard-local
	// segments at gateway nodes. The value caps the shard count (regions
	// beyond it merge into one shard); use a value at or above the
	// world's region count for one shard per region. Combined with
	// Replicas > 1, each shard's SIB replicates through its own Paxos
	// group. 0 keeps the monolithic Brain.
	Regions int
	// NodeUpstreamTimeout overrides the nodes' upstream-silence detection
	// window (0 keeps the node default).
	NodeUpstreamTimeout time.Duration
	// Telemetry enables the observability plane: per-node metric
	// registries whose snapshots ride the Global Discovery reports, a
	// fabric/client/Brain registry each, and a sampled per-packet tracer.
	// Off (the default) none of it exists and nothing is recorded — runs
	// stay byte-identical with telemetry-unaware builds.
	Telemetry bool
	// TraceRate is the tracer's per-ingress-packet sampling probability
	// (default 0.002; only used when Telemetry is on).
	TraceRate float64
	// TraceMax bounds the number of sampled journeys (default 16).
	TraceMax int
	// TraceAfter suppresses journey sampling before this virtual time
	// (skip the startup transient; default 0 samples from the start).
	TraceAfter time.Duration
	// SerialSend disables the nodes' vectored/batched transport submits
	// (each packet goes through plain Sender.Send). The emulator's fabric
	// delivers identically either way; this knob exists so equivalence
	// tests can replay a scenario down both data-plane paths.
	SerialSend bool
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Sites <= 0 {
		c.Sites = 12
	}
	if c.OverlayBandwidthBps <= 0 {
		c.OverlayBandwidthBps = 100e6
	}
	if c.LastMileBandwidthBps <= 0 {
		c.LastMileBandwidthBps = 20e6
	}
	if c.LossScale == 0 {
		c.LossScale = 1
	}
	if c.DiscoveryInterval <= 0 {
		c.DiscoveryInterval = time.Minute
	}
	if c.TraceRate <= 0 {
		c.TraceRate = 0.002
	}
	if c.TraceMax <= 0 {
		c.TraceMax = 16
	}
	return c
}

// clientIDBase is where client endpoint IDs start (node IDs are below).
const clientIDBase = 1 << 16

// Cluster is a packet-level LiveNet deployment.
type Cluster struct {
	cfg ClusterConfig
	// overlayRows[i] lists the sites i has overlay links to (sorted). The
	// full mesh when MaxPeers is 0, the nearest-peers ∪ IXP adjacency
	// otherwise; Global Discovery probes exactly these links.
	overlayRows [][]int
	Loop        *sim.Loop
	World       *geo.World
	Net         *netem.Network
	// Brain is the Streaming Brain, whatever is deployed behind it: a
	// *brain.Brain, a *brain.Ring (Replicas > 1) or a *brainfed.Federation
	// (Regions > 0). This package talks to it as a Service; tests and
	// reports that need one deployment's extras (a view clone, a shard
	// map, a replica log) type-assert.
	Brain brain.Service
	Nodes []*node.Node

	// BrainFailovers counts lookups that timed out on a dead replica and
	// moved to the next; BrainLookupFailures counts lookups that exhausted
	// every replica (the consumer node then uses its local path cache).
	BrainFailovers      uint64
	BrainLookupFailures uint64

	// RespTimes collects Path Decision response times (Figure 10(a)).
	RespTimes *stats.Sample

	// Telemetry plane (all nil unless ClusterConfig.Telemetry): one
	// registry per node (so snapshots attach to that node's discovery
	// reports), one shared by all clients, one for the network fabric,
	// one for the Brain, and the per-packet journey tracer.
	NodeTel   []*telemetry.Registry
	ClientTel *telemetry.Registry
	NetTel    *telemetry.Registry
	BrainTel  *telemetry.Registry
	Tracer    *telemetry.Tracer

	// Replica-attribution instruments (nil-safe): which replica served
	// each lookup, split home vs failover.
	servedHome     *telemetry.Counter
	servedFailover *telemetry.Counter
	lastReplica    *telemetry.Gauge

	// lowerRendition maps each simulcast stream to its next-lower
	// rendition (filled as broadcasters are created); consumer nodes use
	// it for bitrate down-switching (§5.2).
	lowerRendition map[uint32]uint32

	// crashed marks overlay nodes taken down by the fault plane.
	crashed []bool
	// draining marks overlay nodes being decommissioned (DrainNode).
	draining []bool
	// Drain-orchestration instruments (nil-safe).
	drainsStarted   *telemetry.Counter
	drainsCompleted *telemetry.Counter
	drainMigrations *telemetry.Counter
	// lastMileClients maps a node to its attached client endpoints and
	// lastMileLoss remembers each access link's original loss function
	// (for last-mile degradation and restoration).
	lastMileClients map[int][]int
	lastMileLoss    map[int]func(time.Duration) float64

	nextClient int
	closed     bool
}

// NewCluster builds the world, full-mesh overlay links, nodes and Brain,
// and starts the Global Discovery reporting loop.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.withDefaults()
	loop := sim.NewLoop(cfg.Seed)
	gcfg := geo.DefaultConfig()
	gcfg.NumSites = cfg.Sites
	world := geo.Build(gcfg, loop.RNG("geo"))
	net := netem.New(loop, loop.RNG("netem"))

	c := &Cluster{
		cfg:             cfg,
		Loop:            loop,
		World:           world,
		Net:             net,
		RespTimes:       &stats.Sample{},
		lowerRendition:  make(map[uint32]uint32),
		crashed:         make([]bool, cfg.Sites),
		draining:        make([]bool, cfg.Sites),
		lastMileClients: make(map[int][]int),
		lastMileLoss:    make(map[int]func(time.Duration) float64),
		nextClient:      clientIDBase,
	}

	if cfg.Telemetry {
		// The tracer samples from its own RNG stream, so enabling it does
		// not perturb any other stream's draw sequence.
		c.Tracer = telemetry.NewTracer(loop, loop.RNG("telemetry"), cfg.TraceRate, cfg.TraceMax)
		c.Tracer.ClientBase = clientIDBase
		c.Tracer.After = cfg.TraceAfter
		c.ClientTel = telemetry.NewRegistry()
		c.NetTel = telemetry.NewRegistry()
		c.BrainTel = telemetry.NewRegistry()
		net.Instrument(c.NetTel)
		c.NodeTel = make([]*telemetry.Registry, cfg.Sites)
		for i := range c.NodeTel {
			c.NodeTel[i] = telemetry.NewRegistry()
		}
	}

	// Overlay links with geo RTT and near-lossless base loss: the full
	// mesh, or the nearest-peers ∪ IXP adjacency when MaxPeers caps it.
	c.overlayRows = peerAdjacency(world, cfg.MaxPeers)
	if c.overlayRows == nil {
		c.overlayRows = make([][]int, cfg.Sites)
		for i := range c.overlayRows {
			row := make([]int, 0, cfg.Sites-1)
			for j := 0; j < cfg.Sites; j++ {
				if j != i {
					row = append(row, j)
				}
			}
			c.overlayRows[i] = row
		}
	}
	for i := 0; i < cfg.Sites; i++ {
		for _, j := range c.overlayRows[i] {
			i, j := i, j
			base := world.BaseLoss(i, j) * cfg.LossScale
			lossFn := func(now time.Duration) float64 {
				if !cfg.DiurnalLoss {
					return base
				}
				mid := (world.Sites[i].Lon + world.Sites[j].Lon) / 2
				return base * (0.4 + 1.8*geo.DiurnalFactor(geo.LocalHour(now, mid)))
			}
			lc := netem.LinkConfig{
				RTT:          world.RTT(i, j),
				Jitter:       1500 * time.Microsecond,
				BandwidthBps: cfg.OverlayBandwidthBps,
				Loss:         lossFn,
			}
			if cfg.BurstLoss {
				// Bursty episodes scaled off the base loss: mostly quiet,
				// with short bad states that dominate the long-run rate.
				lc.Burst = &netem.BurstConfig{
					PGood:    base * 0.25,
					PBad:     min(0.2, 30*base),
					GoodMean: 20 * time.Second,
					BadMean:  1500 * time.Millisecond,
				}
			}
			net.AddLink(i, j, lc)
		}
	}

	// Streaming Brain: the one place that knows which deployment is behind
	// the Service — per-region shards, a Paxos-replicated ring (§7.1), or a
	// single instance. Aging is enabled so elements whose owner stops
	// reporting are routed around. Each Brain picks its routing engine from
	// the view it is fed (dense once a full mesh has reported).
	bcfg := brain.Config{
		N:          cfg.Sites,
		LastResort: world.IXPSites(),
		Clock:      loop,
		StaleAfter: 3 * cfg.DiscoveryInterval,
		Telemetry:  c.BrainTel,
	}
	switch {
	case cfg.Regions > 0:
		c.Brain = brainfed.New(brainfed.Config{
			Brain:     bcfg,
			Partition: brainfed.ByRegion(world, cfg.Regions),
			Replicas:  cfg.Replicas,
			Telemetry: c.BrainTel,
		})
	case cfg.Replicas > 1:
		// Consensus traffic crosses data centers: a modeled inter-DC delay.
		c.Brain = brain.NewRing(bcfg, cfg.Replicas, func() time.Duration {
			return time.Duration(5+loop.RNG("paxos").Intn(10)) * time.Millisecond
		})
	default:
		c.Brain = brain.New(bcfg)
	}
	// Lookup attribution (satellite of the replicated/federated Brain):
	// which replica answered, home vs failover. Nil-registry safe.
	c.servedHome = c.BrainTel.Counter("brain.lookups_served_home")
	c.servedFailover = c.BrainTel.Counter("brain.lookups_served_failover")
	c.lastReplica = c.BrainTel.Gauge("brain.lookup_last_replica")
	// Drain orchestration (planned reconfiguration): counted here, not in
	// the Brain, so a federated deployment counts each drain once instead
	// of once per shard.
	c.drainsStarted = c.BrainTel.Counter("brain.drains_started")
	c.drainsCompleted = c.BrainTel.Counter("brain.drains_completed")
	c.drainMigrations = c.BrainTel.Counter("brain.drain_migrations")

	// Overlay nodes wired to the Brain.
	for id := 0; id < cfg.Sites; id++ {
		n := c.buildNode(id)
		c.Nodes = append(c.Nodes, n)
		net.Handle(id, n.OnMessage)
	}

	c.discoveryLoop()
	return c
}

// buildNode constructs one overlay node's instance (also used to bring a
// crashed node back).
func (c *Cluster) buildNode(id int) *node.Node {
	var reg *telemetry.Registry
	if c.NodeTel != nil {
		reg = c.NodeTel[id]
	}
	return node.New(node.Config{
		Telemetry:       reg,
		Tracer:          c.Tracer,
		ID:              id,
		Clock:           c.Loop,
		Net:             c.Net,
		SerialSend:      c.cfg.SerialSend,
		LinkRTT:         func(to int) time.Duration { return c.linkRTT(id, to) },
		PathLookup:      c.pathLookup,
		OnNewStream:     func(sid uint32) { c.Brain.RegisterStream(sid, id) },
		OnStreamEnded:   c.Brain.UnregisterStream,
		IsOverlay:       func(id int) bool { return id < clientIDBase },
		UpstreamTimeout: c.cfg.NodeUpstreamTimeout,
		LowerRendition: func(sid uint32) (uint32, bool) {
			lower, ok := c.lowerRendition[sid]
			return lower, ok
		},
	})
}

// linkRTT is the per-hop RTT estimate a node uses for the delay-extension
// accounting: the geo RTT for overlay neighbors (nodes know this from the
// transport layer), a nominal value for client access links.
func (c *Cluster) linkRTT(from, to int) time.Duration {
	if to >= clientIDBase {
		return 30 * time.Millisecond // nominal last mile
	}
	return c.World.RTT(from, to)
}

// replicaTimeout is how long a consumer waits on a Brain replica before
// failing over to the next one.
const replicaTimeout = 250 * time.Millisecond

// pathLookup reaches the Brain's Path Decision module with a modeled
// replica round trip: some consumers are co-located with a replica
// (§7.1: the Path Decision module is replicated widely). With a
// replicated ring, the consumer's home replica is consumer mod R; a
// dead replica times out and the lookup fails over to the next, and when
// every replica is exhausted the node hears ErrBrainUnreachable and
// serves from its local path cache.
func (c *Cluster) pathLookup(sid uint32, consumer int, cb func([][]int, error)) {
	rng := c.Loop.RNG("brainrtt")
	var rtt time.Duration
	if rng.Bernoulli(0.35) {
		rtt = time.Duration(1+rng.Intn(5)) * time.Millisecond
	} else {
		rtt = time.Duration(8+rng.Intn(45)) * time.Millisecond
	}
	proc := time.Duration(2+rng.Intn(6)) * time.Millisecond
	total := rtt + proc
	if ring, ok := c.Brain.(*brain.Ring); ok {
		c.lookupReplica(ring, sid, consumer, consumer%ring.Replicas(), 0, total, cb)
		return
	}
	c.RespTimes.Add(float64(total) / float64(time.Millisecond))
	c.Loop.AfterFunc(total, func() {
		paths, err := c.Brain.Lookup(sid, consumer)
		if errors.Is(err, brainfed.ErrShardUnreachable) {
			// The federation's fallback ladder ran dry: count it like an
			// exhausted ring and let the node use its local path cache.
			c.BrainLookupFailures++
			err = ErrBrainUnreachable
		}
		cb(paths, err)
	})
}

// lookupReplica tries replica (home+tried) mod R, walking the ring until
// one answers or all have timed out.
func (c *Cluster) lookupReplica(ring *brain.Ring, sid uint32, consumer, home, tried int, rtt time.Duration, cb func([][]int, error)) {
	if tried >= ring.Replicas() {
		c.BrainLookupFailures++
		c.Loop.AfterFunc(replicaTimeout, func() { cb(nil, ErrBrainUnreachable) })
		return
	}
	idx := (home + tried) % ring.Replicas()
	if ring.Down(idx) {
		c.Loop.AfterFunc(replicaTimeout, func() {
			c.BrainFailovers++
			c.lookupReplica(ring, sid, consumer, home, tried+1, rtt, cb)
		})
		return
	}
	c.RespTimes.Add(float64(time.Duration(tried)*replicaTimeout+rtt) / float64(time.Millisecond))
	c.Loop.AfterFunc(rtt, func() {
		paths, err := ring.LookupAt(idx, sid, consumer)
		// Attribute the answer: a lookup served off the consumer's home
		// replica is a failover the operator should see in telemetry.
		if idx == home {
			c.servedHome.Inc()
		} else {
			c.servedFailover.Inc()
		}
		c.lastReplica.Set(float64(idx))
		cb(paths, err)
	})
}

// discoveryLoop reports link and node metrics to Global Discovery on the
// 1-minute schedule of §4.2, with immediate overload alarms at the 80%
// target.
func (c *Cluster) discoveryLoop() {
	c.Loop.AfterFunc(c.cfg.DiscoveryInterval, func() {
		if c.closed {
			return
		}
		n := c.cfg.Sites
		for i := 0; i < n; i++ {
			if c.crashed[i] {
				continue // a crashed node cannot report anything
			}
			maxUtil := 0.0
			for _, j := range c.overlayRows[i] {
				s, ok := c.Net.LinkStats(i, j)
				if !ok {
					continue
				}
				if !c.Net.LinkUp(i, j) {
					// The node's probes over a dead link time out: report
					// the failure instead of stale metrics (§4.2).
					c.Brain.ReportLinkDown(i, j)
					continue
				}
				c.Brain.ReportLink(i, j, s.RTT, s.LossRate, s.Utilization)
				if s.Utilization >= 0.8 {
					c.Brain.LinkOverloadAlarm(i, j, s.Utilization)
				}
				if s.Utilization > maxUtil {
					maxUtil = s.Utilization
				}
			}
			load := 0.7*maxUtil + 0.3*min(1, float64(c.Nodes[i].StreamCount())/64)
			c.Brain.ReportNodeLoad(i, load)
			if load >= 0.8 {
				c.Brain.OverloadAlarm(i, load)
			}
			if c.NodeTel != nil {
				// Telemetry rides the existing report: a registry snapshot
				// plus the carried-stream set for fan-out accounting.
				snap := c.NodeTel[i].Snapshot()
				streams := c.Nodes[i].Streams()
				c.Brain.ReportNodeTelemetry(i, snap, streams)
			}
		}
		c.discoveryLoop()
	})
}

// allocClientID reserves a fresh client endpoint ID.
func (c *Cluster) allocClientID() int {
	id := c.nextClient
	c.nextClient++
	return id
}

// lastMile wires a client endpoint to a node with a plausible access link.
func (c *Cluster) lastMile(clientID, nodeID int, rtt time.Duration, loss float64) {
	cfg := netem.LinkConfig{
		RTT:          rtt,
		Jitter:       2 * time.Millisecond,
		BandwidthBps: c.cfg.LastMileBandwidthBps,
	}
	if loss > 0 {
		cfg.Loss = func(time.Duration) float64 { return loss }
	}
	c.Net.AddDuplex(clientID, nodeID, cfg)
	c.lastMileClients[nodeID] = append(c.lastMileClients[nodeID], clientID)
	c.lastMileLoss[clientID] = cfg.Loss
}

// NewBroadcasterAt creates a broadcaster at the given location, mapped by
// DNS redirection to its nearest site (the producer node).
func (c *Cluster) NewBroadcasterAt(lat, lon float64, baseSID uint32, rends []media.Rendition) *Broadcast {
	producer := c.World.NearestSite(lat, lon)
	id := c.allocClientID()
	rng := c.Loop.RNG("lastmile")
	rtt := time.Duration(10+rng.Intn(30)) * time.Millisecond
	c.lastMile(id, producer, rtt, 0.0005)
	bc := client.NewBroadcaster(id, producer, baseSID, rends, c.Loop, c.Net, c.Loop.RNG("media"))
	if c.ClientTel != nil {
		bc.Instrument(c.ClientTel)
	}
	bc.FirstMileRTT = rtt
	// Register the simulcast ladder for bitrate down-switching: rendition
	// i's next-lower version is rendition i+1 (§5.2).
	for i := 0; i+1 < len(rends); i++ {
		c.lowerRendition[bc.StreamID(i)] = bc.StreamID(i + 1)
	}
	return &Broadcast{Broadcaster: bc, Producer: producer}
}

// PrefetchPopular proactively pushes up-to-date overlay paths for a
// popular stream to every node ahead of viewer arrival (§4.4), so the
// first viewing request anywhere is a local hit.
func (c *Cluster) PrefetchPopular(sid uint32) error {
	paths, err := c.Brain.PrefetchPaths(sid)
	if err != nil {
		return err
	}
	for dst, p := range paths {
		c.Nodes[dst].InstallPaths(sid, p)
	}
	return nil
}

// Broadcast bundles a broadcaster with its producer node assignment.
type Broadcast struct {
	*client.Broadcaster
	Producer int
}

// Viewing bundles a viewer with its consumer node assignment.
type Viewing struct {
	*client.Viewer
	ConsumerNode int
	LocalHit     bool
}

// NewViewerAt creates a viewer at the given location, mapped to its
// nearest site (the consumer node), and attaches it to the stream.
func (c *Cluster) NewViewerAt(lat, lon float64, sid uint32) *Viewing {
	consumer := c.World.NearestSite(lat, lon)
	id := c.allocClientID()
	rng := c.Loop.RNG("lastmile")
	rtt := time.Duration(10+rng.Intn(40)) * time.Millisecond
	loss := 0.0005
	if rng.Bernoulli(0.12) { // mobile tail
		loss = 0.003 + rng.Float64()*0.01
	}
	c.lastMile(id, consumer, rtt, loss)
	v := client.NewViewer(id, sid, consumer, c.Loop, c.Net)
	if c.ClientTel != nil {
		v.Instrument(c.ClientTel)
	}
	c.Net.Handle(id, v.OnMessage)
	v.Attach()
	hit := c.Nodes[consumer].AttachViewer(id, sid)
	// Quality-triggered path switching (§4.4): relay client stall reports
	// to the consumer node.
	v.OnStall = func(count int) {
		c.Nodes[consumer].ReportClientQuality(id, sid, count)
	}
	return &Viewing{Viewer: v, ConsumerNode: consumer, LocalHit: hit}
}

// Detach removes a viewing from its consumer.
func (c *Cluster) Detach(v *Viewing) {
	c.Nodes[v.ConsumerNode].DetachViewer(v.Viewer.ID, v.Viewer.StreamID)
	v.Viewer.Close()
}

// Run advances the cluster's virtual time.
func (c *Cluster) Run(d time.Duration) {
	c.Loop.RunUntil(c.Loop.Now() + d)
}

// --- Fault-injection surface (driven by internal/chaos) ---

// CrashNode fail-stops an overlay node: its process dies (handler gone,
// timers stopped) and every incident link goes dark. Recovery flows
// through the system itself — neighbors report dead links, the Brain
// ages the node out, downstream nodes fast-switch.
func (c *Cluster) CrashNode(id int) {
	if id < 0 || id >= c.cfg.Sites || c.crashed[id] {
		return
	}
	c.crashed[id] = true
	c.Nodes[id].Close()
	c.Net.Handle(id, nil)
	for j := 0; j < c.cfg.Sites; j++ {
		if j != id {
			c.Net.SetLinkUp(id, j, false)
			c.Net.SetLinkUp(j, id, false)
		}
	}
	for _, cl := range c.lastMileClients[id] {
		c.Net.SetLinkUp(id, cl, false)
		c.Net.SetLinkUp(cl, id, false)
	}
}

// RestartNode brings a crashed node back with empty state (a fresh
// process): its links come up and it resumes reporting; streams reappear
// only as downstream subscriptions re-establish through it.
func (c *Cluster) RestartNode(id int) {
	if id < 0 || id >= c.cfg.Sites || !c.crashed[id] {
		return
	}
	c.crashed[id] = false
	n := c.buildNode(id)
	c.Nodes[id] = n
	c.Net.Handle(id, n.OnMessage)
	for j := 0; j < c.cfg.Sites; j++ {
		if j != id && !c.crashed[j] {
			c.Net.SetLinkUp(id, j, true)
			c.Net.SetLinkUp(j, id, true)
		}
	}
	for _, cl := range c.lastMileClients[id] {
		c.Net.SetLinkUp(id, cl, true)
		c.Net.SetLinkUp(cl, id, true)
	}
}

// NodeCrashed reports whether a node is currently failed.
func (c *Cluster) NodeCrashed(id int) bool {
	return id >= 0 && id < len(c.crashed) && c.crashed[id]
}

// SetOverlayLink cuts or restores the duplex overlay link between two
// sites (a "fiber cut", distinct from congestion).
func (c *Cluster) SetOverlayLink(a, b int, up bool) {
	c.Net.SetLinkUp(a, b, up)
	c.Net.SetLinkUp(b, a, up)
}

// SetOverlayBurst installs (or clears, with nil) a bursty-loss episode
// generator on the duplex overlay link between two sites.
func (c *Cluster) SetOverlayBurst(a, b int, cfg *netem.BurstConfig) {
	c.Net.SetBurst(a, b, cfg)
	c.Net.SetBurst(b, a, cfg)
}

// DegradeLastMile sets every access link of a node's attached clients to
// the given loss rate; it returns how many clients were affected.
func (c *Cluster) DegradeLastMile(nodeID int, loss float64) int {
	fn := func(time.Duration) float64 { return loss }
	for _, cl := range c.lastMileClients[nodeID] {
		c.Net.SetLoss(nodeID, cl, fn)
		c.Net.SetLoss(cl, nodeID, fn)
	}
	return len(c.lastMileClients[nodeID])
}

// RestoreLastMile reinstates the original loss on a node's access links.
func (c *Cluster) RestoreLastMile(nodeID int) {
	for _, cl := range c.lastMileClients[nodeID] {
		fn := c.lastMileLoss[cl]
		c.Net.SetLoss(nodeID, cl, fn)
		c.Net.SetLoss(cl, nodeID, fn)
	}
}

// KillReplica takes a Brain replica down: it stops answering lookups and
// drops out of the consensus group (no-op without a replicated Brain).
func (c *Cluster) KillReplica(i int) { c.setReplicaDown(i, true) }

// RestartReplica brings a Brain replica back; it catches up on SIB state
// from subsequent consensus traffic and on view state from the next
// discovery reports.
func (c *Cluster) RestartReplica(i int) { c.setReplicaDown(i, false) }

func (c *Cluster) setReplicaDown(i int, down bool) {
	if ring, ok := c.Brain.(*brain.Ring); ok {
		ring.SetDown(i, down)
	}
}

// PartitionReplica cuts a Brain replica off from consensus traffic
// without killing it (it keeps serving lookups from its local view but
// cannot commit proposals). With a federated Brain the index names a
// shard instead: the shard becomes unreachable from the front-end and
// cross-shard lookups degrade through the fallback ladder.
func (c *Cluster) PartitionReplica(i int) { c.setReplicaPartitioned(i, true) }

// HealReplica reconnects a partitioned replica (or federation shard);
// stalled proposals catch up through retries and learn traffic.
func (c *Cluster) HealReplica(i int) { c.setReplicaPartitioned(i, false) }

// setReplicaPartitioned is the one fault that means something different
// per deployment, so it names them; a monolith has nothing to partition.
func (c *Cluster) setReplicaPartitioned(i int, cut bool) {
	switch b := c.Brain.(type) {
	case *brain.Ring:
		b.SetPartitioned(i, cut)
	case *brainfed.Federation:
		if i >= 0 && i < b.Shards() {
			b.SetShardDown(i, cut)
		}
	}
}

// Close stops timers.
func (c *Cluster) Close() {
	c.closed = true
	c.Brain.Close()
	for _, n := range c.Nodes {
		n.Close()
	}
}
