package eval

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"livenet/internal/brain"
	"livenet/internal/chaos"
	"livenet/internal/client"
	"livenet/internal/core"
	"livenet/internal/media"
	"livenet/internal/netem"
	"livenet/internal/node"
	"livenet/internal/sim"
	"livenet/internal/stats"
	"livenet/internal/wire"
	"livenet/internal/workload"
)

// --- Fault tolerance (§4.3/§7.1): failure recovery under injected faults ---
//
// Three experiments, all driven by the chaos engine against the same
// virtual clock as the system under test, so a fixed seed replays the
// fault timeline and the recovery behaviour byte-identically:
//
//  1. Mid-path relay crash: LiveNet's silence detection + fast switch to
//     a pre-delivered backup path, against a Hier-style baseline that
//     must notice the outage itself and re-resolve through a slow
//     centralized control plane.
//  2. Brain unreachable: every path lookup fails while a double relay
//     crash forces a re-path; the consumer node serves from its local
//     path cache and recovers with no working control plane at all.
//  3. Brain-replica outage: a packet-level cluster with a 3-replica
//     Paxos Brain loses one replica mid-run; consumer lookups fail over
//     to the next live replica and no lookup is ever lost.

// chainInjector adapts the hand-wired relay-chain topology (built
// directly on node.New + netem, no Cluster) to the chaos fault surface.
// Replica and last-mile faults have no meaning here and are no-ops.
type chainInjector struct {
	net     *netem.Network
	nodes   map[int]*node.Node
	rebuild func(id int) *node.Node
	// peers lists each overlay node's link neighbors (for crash = all
	// incident links dark).
	peers map[int][]int
	down  map[int]bool
}

func (ci *chainInjector) CrashNode(id int) {
	if ci.down[id] {
		return
	}
	ci.down[id] = true
	ci.nodes[id].Close()
	ci.net.Handle(id, nil)
	for _, p := range ci.peers[id] {
		ci.net.SetLinkUp(id, p, false)
		ci.net.SetLinkUp(p, id, false)
	}
}

func (ci *chainInjector) RestartNode(id int) {
	if !ci.down[id] {
		return
	}
	ci.down[id] = false
	n := ci.rebuild(id)
	ci.nodes[id] = n
	ci.net.Handle(id, n.OnMessage)
	for _, p := range ci.peers[id] {
		if !ci.down[p] {
			ci.net.SetLinkUp(id, p, true)
			ci.net.SetLinkUp(p, id, true)
		}
	}
}

func (ci *chainInjector) SetOverlayLink(a, b int, up bool) {
	ci.net.SetLinkUp(a, b, up)
	ci.net.SetLinkUp(b, a, up)
}

func (ci *chainInjector) SetOverlayBurst(a, b int, cfg *netem.BurstConfig) {
	ci.net.SetBurst(a, b, cfg)
	ci.net.SetBurst(b, a, cfg)
}

func (ci *chainInjector) DegradeLastMile(int, float64) int { return 0 }
func (ci *chainInjector) RestoreLastMile(int)              {}
func (ci *chainInjector) KillReplica(int)                  {}
func (ci *chainInjector) RestartReplica(int)               {}
func (ci *chainInjector) PartitionReplica(int)             {}
func (ci *chainInjector) HealReplica(int)                  {}
func (ci *chainInjector) DrainNode(int) int                { return 0 }
func (ci *chainInjector) UndrainNode(int)                  {}

// RelayCrashResult summarizes one relay-crash run at the viewer.
type RelayCrashResult struct {
	System string
	// DetectionMs is the configured upstream-silence window.
	DetectionMs float64
	// PathSwitchMs is the overlay interruption: the gap in RTP arrivals
	// at the consumer *node* opened by the crash (detection + switch +
	// re-establishment on the backup path).
	PathSwitchMs float64
	// OutageMs is the viewer-visible interruption: the arrival gap at
	// the viewer opened by the crash.
	OutageMs float64
	// RecoveredAfterMs is crash → first viewer packet after the outage.
	RecoveredAfterMs float64
	// StallsDuringFault counts playback stalls in the 4 s fault window;
	// Stalls is the whole run. FramesMissed counts frames that never
	// played at all (a long outage loses frames outright rather than
	// stalling on them).
	StallsDuringFault int
	Stalls            int
	FramesPlayed      int
	FramesMissed      int
	// PostFaultDelayMs is the median capture→display delay over the last
	// quarter of the run: a system that "recovers" by shifting its
	// playback timeline keeps paying the outage as latency ever after,
	// while one that sheds frames returns to low delay.
	PostFaultDelayMs float64
	FastSwitches     uint64
	CacheFallbacks   uint64
	Timeline         string
}

// faultGap finds the first inter-arrival gap >= 200 ms opened at or
// after the crash (ignoring the end-of-broadcast tail) and returns its
// width and far edge, or (0, -1) when delivery was never interrupted.
func faultGap(arrivals []time.Duration) (time.Duration, time.Duration) {
	for i := 1; i < len(arrivals); i++ {
		prev, cur := arrivals[i-1], arrivals[i]
		if cur < rcCrashAt || cur > rcStopAt {
			continue
		}
		if g := cur - prev; g >= 200*time.Millisecond {
			return g, cur
		}
	}
	return 0, -1
}

// relayCrashConfig parameterizes the hand-wired chain run.
type relayCrashConfig struct {
	system string
	// paths are the overlay paths the control plane answers with (first
	// is primary, rest are the pre-delivered backups).
	paths [][]int
	// lookupDelay models the control-plane round trip.
	lookupDelay time.Duration
	// detect is the node's upstream-silence window; establish is its
	// stuck-Subscribe retry window.
	detect, establish time.Duration
	// hierRefresh, when > 0, makes the control plane keep answering with
	// the dead primary path until crashAt+hierRefresh (a centralized
	// resolver with a slow view refresh). Zero answers `paths` always.
	hierRefresh time.Duration
	// brainDownAt, when > 0, fails every lookup issued at or after it
	// (the Brain is unreachable; nodes must use their local path cache).
	brainDownAt time.Duration
	scenario    chaos.Scenario
}

// Topology for the relay-crash runs:
//
//	broadcaster(1000) — producer(0) —{ relay(1) | relay(3) | direct }— consumer(2) — viewer(2000)
const (
	rcBroadcaster = 1000
	rcProducer    = 0
	rcRelayA      = 1
	rcConsumer    = 2
	rcRelayB      = 3
	rcViewer      = 2000
	rcCrashAt     = 6 * time.Second
	rcStopAt      = 14 * time.Second
)

// runRelayCrash broadcasts 14 s of video through the chain, applies the
// scenario, and measures the viewer-visible outage and recovery.
func runRelayCrash(seed int64, cfg relayCrashConfig) RelayCrashResult {
	loop := sim.NewLoop(seed)
	net := netem.New(loop, loop.RNG("netem"))
	edge := netem.LinkConfig{RTT: 10 * time.Millisecond, BandwidthBps: 100e6}
	hop := netem.LinkConfig{RTT: 30 * time.Millisecond, BandwidthBps: 100e6}
	net.AddDuplex(rcBroadcaster, rcProducer, edge)
	net.AddDuplex(rcProducer, rcRelayA, hop)
	net.AddDuplex(rcRelayA, rcConsumer, hop)
	net.AddDuplex(rcProducer, rcRelayB, hop)
	net.AddDuplex(rcRelayB, rcConsumer, hop)
	// The direct leg exists but is slower than either relay route.
	net.AddDuplex(rcProducer, rcConsumer, netem.LinkConfig{RTT: 70 * time.Millisecond, BandwidthBps: 100e6})
	net.AddDuplex(rcConsumer, rcViewer, edge)

	lookup := func(_ uint32, _ int, cb func([][]int, error)) {
		asked := loop.Now()
		loop.AfterFunc(cfg.lookupDelay, func() {
			if cfg.brainDownAt > 0 && asked >= cfg.brainDownAt {
				cb(nil, core.ErrBrainUnreachable)
				return
			}
			answer := cfg.paths
			if cfg.hierRefresh > 0 && asked >= rcCrashAt+cfg.hierRefresh {
				// The centralized view finally refreshed: route via the
				// other relay.
				answer = [][]int{{rcProducer, rcRelayB, rcConsumer}}
			}
			// Fresh copies per answer: nodes keep references.
			out := make([][]int, len(answer))
			for i, p := range answer {
				out[i] = append([]int(nil), p...)
			}
			cb(out, nil)
		})
	}
	mkNode := func(id int) *node.Node {
		return node.New(node.Config{
			ID: id, Clock: loop, Net: net,
			SerialSend:       SerialDataPlane,
			PathLookup:       lookup,
			LinkRTT:          func(int) time.Duration { return 30 * time.Millisecond },
			IsOverlay:        func(id int) bool { return id < rcBroadcaster },
			UpstreamTimeout:  cfg.detect,
			EstablishTimeout: cfg.establish,
			// Keep the GCC floor above the single rendition's bitrate:
			// the loss controller collapses during the outage (it cannot
			// tell upstream holes from last-mile loss), and with only
			// one rendition the §5.2 simulcast down-switch — the
			// production escape hatch — is not available here.
			MinRateBps: 4e6,
		})
	}
	inj := &chainInjector{
		net:     net,
		nodes:   make(map[int]*node.Node),
		rebuild: mkNode,
		peers: map[int][]int{
			rcProducer: {rcBroadcaster, rcRelayA, rcRelayB, rcConsumer},
			rcRelayA:   {rcProducer, rcConsumer},
			rcConsumer: {rcProducer, rcRelayA, rcRelayB, rcViewer},
			rcRelayB:   {rcProducer, rcConsumer},
		},
		down: make(map[int]bool),
	}
	var nodeArrivals []time.Duration
	for _, id := range []int{rcProducer, rcRelayA, rcConsumer, rcRelayB} {
		id := id
		n := mkNode(id)
		inj.nodes[id] = n
		handler := n.OnMessage
		if id == rcConsumer {
			// Tap overlay RTP reaching the consumer node: the gap here is
			// the pure path-switch latency, before last-mile effects.
			handler = func(from int, data []byte) {
				if from < rcBroadcaster && wire.Kind(data) == wire.MsgRTP {
					nodeArrivals = append(nodeArrivals, loop.Now())
				}
				inj.nodes[rcConsumer].OnMessage(from, data)
			}
		}
		net.Handle(id, handler)
	}

	bc := client.NewBroadcaster(rcBroadcaster, rcProducer, 100, media.DefaultRenditions[:1], loop, net, loop.RNG("media"))
	sid := bc.StreamID(0)
	v := client.NewViewer(rcViewer, sid, rcConsumer, loop, net)
	var arrivals, stallTimes []time.Duration
	v.OnStall = func(int) { stallTimes = append(stallTimes, loop.Now()) }
	net.Handle(rcViewer, func(from int, data []byte) {
		if wire.Kind(data) == wire.MsgRTP {
			arrivals = append(arrivals, loop.Now())
		}
		v.OnMessage(from, data)
	})

	eng := chaos.NewEngine(loop, inj)
	eng.Install(cfg.scenario)

	bc.Start()
	loop.AfterFunc(time.Second, func() {
		v.Attach()
		inj.nodes[rcConsumer].AttachViewer(rcViewer, sid)
	})
	// Snapshot at broadcast stop: the end-of-broadcast silence would
	// otherwise re-fire the upstream detector and muddy the counters.
	var m node.Metrics
	var s client.ViewStats
	loop.AfterFunc(rcStopAt, func() {
		bc.Stop()
		m = inj.nodes[rcConsumer].Metrics()
		s = v.Stats()
	})
	loop.RunUntil(16 * time.Second)

	switchGap, _ := faultGap(nodeArrivals)
	outage, recoveredAt := faultGap(arrivals)
	var postDelay time.Duration
	if n := len(s.StreamingDelay); n > 0 {
		tail := append([]time.Duration(nil), s.StreamingDelay[n*3/4:]...)
		slices.Sort(tail)
		postDelay = tail[len(tail)/2]
	}
	res := RelayCrashResult{
		System:           cfg.system,
		DetectionMs:      float64(cfg.detect) / float64(time.Millisecond),
		PathSwitchMs:     float64(switchGap) / float64(time.Millisecond),
		OutageMs:         float64(outage) / float64(time.Millisecond),
		Stalls:           s.Stalls,
		FramesPlayed:     s.FramesPlayed,
		FramesMissed:     s.FramesMissed,
		PostFaultDelayMs: float64(postDelay) / float64(time.Millisecond),
		FastSwitches:     m.FastSwitches,
		CacheFallbacks:   m.CacheFallbacks,
		Timeline:         eng.TimelineString(),
	}
	if recoveredAt >= rcCrashAt {
		res.RecoveredAfterMs = float64(recoveredAt-rcCrashAt) / float64(time.Millisecond)
	}
	for _, st := range stallTimes {
		if st >= rcCrashAt && st <= rcCrashAt+4*time.Second {
			res.StallsDuringFault++
		}
	}
	return res
}

// relayCrashScenario is the shared fault schedule of experiment 1: the
// primary relay fail-stops mid-broadcast and never comes back.
func relayCrashScenario() chaos.Scenario {
	return chaos.Scenario{
		Name:   "relay-crash",
		Faults: []chaos.Fault{{Kind: chaos.NodeCrash, At: rcCrashAt, Node: rcRelayA}},
	}
}

// RelayCrashCompare runs the mid-path relay crash for both systems on
// the same seed and fault schedule. LiveNet holds k=3 pre-delivered
// paths and detects upstream silence in 300 ms; the Hier baseline has a
// single path, a 3 s detection window, and a centralized resolver that
// keeps answering with the dead path until its view refreshes.
func RelayCrashCompare(seed int64) (ln, hr RelayCrashResult) {
	ln = runRelayCrash(seed, relayCrashConfig{
		system: "LiveNet",
		paths: [][]int{
			{rcProducer, rcRelayA, rcConsumer},
			{rcProducer, rcRelayB, rcConsumer},
			{rcProducer, rcConsumer},
		},
		lookupDelay: 5 * time.Millisecond,
		detect:      300 * time.Millisecond,
		establish:   500 * time.Millisecond,
		scenario:    relayCrashScenario(),
	})
	hr = runRelayCrash(seed, relayCrashConfig{
		system:      "Hier",
		paths:       [][]int{{rcProducer, rcRelayA, rcConsumer}},
		lookupDelay: 150 * time.Millisecond,
		detect:      3 * time.Second,
		establish:   3 * time.Second,
		hierRefresh: 2500 * time.Millisecond,
		scenario:    relayCrashScenario(),
	})
	return ln, hr
}

// CacheFallback runs experiment 2: the Brain becomes unreachable, then
// both relays crash (one restarts shortly after). With every lookup
// failing, the consumer node cycles through its cached paths until the
// restarted relay answers — recovery with no working control plane.
func CacheFallback(seed int64) RelayCrashResult {
	return runRelayCrash(seed, relayCrashConfig{
		system: "LiveNet (Brain down)",
		paths: [][]int{
			{rcProducer, rcRelayA, rcConsumer},
			{rcProducer, rcRelayB, rcConsumer},
		},
		lookupDelay: 5 * time.Millisecond,
		detect:      300 * time.Millisecond,
		establish:   500 * time.Millisecond,
		brainDownAt: 5 * time.Second,
		scenario: chaos.Scenario{
			Name: "brain-down-double-crash",
			Faults: []chaos.Fault{
				{Kind: chaos.NodeCrash, At: rcCrashAt, Until: 8 * time.Second, Node: rcRelayA},
				{Kind: chaos.NodeCrash, At: rcCrashAt, Node: rcRelayB},
			},
		},
	})
}

// BrainOutageResult summarizes the replica-outage cluster run.
type BrainOutageResult struct {
	Viewers        int
	Started        int
	Failovers      uint64
	LookupFailures uint64
	Lookups        int
	Timeline       string
}

// BrainOutage runs experiment 3: a 10-site packet-level cluster with a
// 3-replica Paxos Brain loses replica 1 for the middle of the run while
// viewers keep arriving. Lookups homed to the dead replica time out and
// fail over to the next live one; none is lost.
func BrainOutage(seed int64) BrainOutageResult {
	c := core.NewCluster(core.ClusterConfig{
		Seed:                seed,
		Sites:               10,
		Replicas:            3,
		DiscoveryInterval:   20 * time.Second,
		NodeUpstreamTimeout: 500 * time.Millisecond,
		SerialSend:          SerialDataPlane,
	})
	defer c.Close()

	eng := chaos.NewEngine(c.Loop, c)
	eng.Install(chaos.Scenario{
		Name: "replica-outage",
		Faults: []chaos.Fault{
			{Kind: chaos.ReplicaKill, At: 4 * time.Second, Until: 12 * time.Second, Replica: 1},
		},
	})

	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[:1])
	bc.Start()
	sid := bc.StreamID(0)

	// One viewer per site (placed at the site's own coordinates so DNS
	// maps it there), arriving before, during, and after the outage. A
	// viewer's home replica is its consumer mod 3, so sites 1, 4, 7 home
	// to the killed replica; the ones arriving in the outage window must
	// fail over.
	order := []int{2, 5, 1, 4, 7, 0, 3, 6, 8, 9}
	views := make([]*core.Viewing, 0, len(order))
	for i, site := range order {
		if site == bc.Producer {
			continue
		}
		lat, lon := c.World.Sites[site].Lat, c.World.Sites[site].Lon
		c.Loop.AfterFunc(time.Duration(i+1)*1300*time.Millisecond, func() {
			views = append(views, c.NewViewerAt(lat, lon, sid))
		})
	}
	c.Run(18 * time.Second)

	res := BrainOutageResult{
		Viewers:        len(views),
		Failovers:      c.BrainFailovers,
		LookupFailures: c.BrainLookupFailures,
		Lookups:        c.RespTimes.N(),
		Timeline:       eng.TimelineString(),
	}
	for _, v := range views {
		if v.Stats().Started {
			res.Started++
		}
	}
	return res
}

// QuorumPartitionResult summarizes the shard-quorum partition run.
type QuorumPartitionResult struct {
	// CommittedDuring is each replica's committed-log length while the
	// partition still holds; CommittedAfter the lengths at run end.
	CommittedDuring []int
	CommittedAfter  []int
	// Proposals is how many SIB operations the run proposed.
	Proposals int
	// Converged reports whether every replica's log matched at the end.
	Converged bool
	Timeline  string
}

// QuorumPartition runs experiment 4: a shard's 3-replica Paxos group
// (§7.1 — the same group a brainfed shard replicates through) has one
// replica partitioned away from consensus traffic mid-run while streams
// keep registering. The partitioned replica keeps serving lookups but
// its log stalls; proposals homed to it retry until the heal, and after
// the heal every replica converges on the same committed log.
func QuorumPartition(seed int64) QuorumPartitionResult {
	c := core.NewCluster(core.ClusterConfig{
		Seed:              seed,
		Sites:             10,
		Replicas:          3,
		DiscoveryInterval: 20 * time.Second,
		SerialSend:        SerialDataPlane,
	})
	defer c.Close()

	eng := chaos.NewEngine(c.Loop, c)
	eng.Install(chaos.Scenario{
		Name: "shard-quorum-partition",
		Faults: []chaos.Fault{
			{Kind: chaos.ReplicaPartition, At: 4 * time.Second, Until: 10 * time.Second, Replica: 2},
		},
	})

	// Streams register before, during, and after the partition window
	// (producers spread across sites so proposals home to different
	// replicas, including the partitioned one).
	res := QuorumPartitionResult{}
	starts := []struct {
		at       time.Duration
		lat, lon float64
		sid      uint32
	}{
		{1 * time.Second, 31.2, 121.5, 100},
		{5 * time.Second, 40.7, -74.0, 200},
		{6500 * time.Millisecond, 52.5, 13.4, 300},
		{12 * time.Second, 1.35, 103.8, 400},
	}
	for _, st := range starts {
		st := st
		c.Loop.AfterFunc(st.at, func() {
			bc := c.NewBroadcasterAt(st.lat, st.lon, st.sid, media.DefaultRenditions[:1])
			bc.Start()
			res.Proposals++
		})
	}

	// The committed-log lengths are the ring's own detail, not part of the
	// Brain service surface.
	ring := c.Brain.(*brain.Ring)
	committed := func() []int {
		counts := make([]int, ring.Replicas())
		for i := range counts {
			counts[i] = ring.Replica(i).Replica().CommittedCount()
		}
		return counts
	}
	c.Loop.AfterFunc(9900*time.Millisecond, func() { res.CommittedDuring = committed() })
	c.Run(16 * time.Second)
	res.CommittedAfter = committed()
	res.Converged = true
	for _, n := range res.CommittedAfter {
		if n != res.CommittedAfter[0] {
			res.Converged = false
		}
	}
	res.Timeline = eng.TimelineString()
	return res
}

// FlashCrowdCohortResult summarizes the million-viewer flash-crowd run.
type FlashCrowdCohortResult struct {
	Viewers         float64
	TracerViews     int
	PeakConcurrency int
	ZeroStallPct    float64
	FastStartPct    float64
	RebufferRatio   float64
}

// FlashCrowdCohort runs experiment 5: a million-viewer flash crowd
// through the cohort-aggregated macro engine (§6.1 at production scale —
// the load doubles for the second hour, Figure 14 style). It is not a
// chaos scenario but a scale stress: the surge arrives as aggregate
// cohort counts, so the run costs O(edges x channels) per bucket
// regardless of the viewer count, and the whole result remains a pure
// function of the seed.
func FlashCrowdCohort(seed int64) FlashCrowdCohortResult {
	cfg := core.MacroConfig{
		Seed:         seed,
		Sites:        12,
		Hours:        2,
		System:       core.SystemLiveNet,
		Viewers:      1_000_000,
		TracerSample: 1e-6,
	}
	cfg.Workload.Flash = []workload.FlashEvent{{Start: time.Hour, End: 2 * time.Hour, Multiplier: 2}}
	r := core.RunMacro(cfg)
	q := r.CohortQoE
	peak := 0
	for _, ds := range r.ByDay {
		if ds.PeakConcurrency > peak {
			peak = ds.PeakConcurrency
		}
	}
	return FlashCrowdCohortResult{
		Viewers:         q.Viewers,
		TracerViews:     q.TracerViews,
		PeakConcurrency: peak,
		ZeroStallPct:    q.ZeroStall.Percent(),
		FastStartPct:    q.FastStart.Percent(),
		RebufferRatio:   q.RebufferRatio(),
	}
}

// FaultReport renders the fault-tolerance evaluation: the six
// experiments with their chaos timelines, in the same table style as the
// paper sections. The whole report is a pure function of the seed.
func FaultReport(seed int64) string {
	var b strings.Builder

	ln, hr := RelayCrashCompare(seed)
	b.WriteString("Fault tolerance: mid-path relay crash at t=6s (recovery at the viewer)\n")
	b.WriteString("fault schedule:\n" + indent(ln.Timeline))
	t := &stats.Table{Header: []string{"system", "detect (ms)", "path switch (ms)", "viewer outage (ms)", "stalls in fault win", "frames played", "frames missed", "post-fault delay (ms)", "fast switches"}}
	for _, r := range []RelayCrashResult{ln, hr} {
		t.AddRow(r.System,
			fmt.Sprintf("%.0f", r.DetectionMs),
			fmt.Sprintf("%.0f", r.PathSwitchMs),
			fmt.Sprintf("%.0f", r.OutageMs),
			fmt.Sprintf("%d", r.StallsDuringFault),
			fmt.Sprintf("%d", r.FramesPlayed),
			fmt.Sprintf("%d", r.FramesMissed),
			fmt.Sprintf("%.0f", r.PostFaultDelayMs),
			fmt.Sprintf("%d", r.FastSwitches))
	}
	b.WriteString(t.String())
	if hr.RecoveredAfterMs > 0 && ln.RecoveredAfterMs > 0 {
		fmt.Fprintf(&b, "LiveNet recovers %.1fx faster than Hier (%.0f ms vs %.0f ms)\n",
			hr.RecoveredAfterMs/ln.RecoveredAfterMs, ln.RecoveredAfterMs, hr.RecoveredAfterMs)
	}
	if hr.PostFaultDelayMs > ln.PostFaultDelayMs {
		fmt.Fprintf(&b, "Hier pays the outage as latency: post-fault delay %.0f ms vs LiveNet's %.0f ms\n",
			hr.PostFaultDelayMs, ln.PostFaultDelayMs)
	}

	cf := CacheFallback(seed)
	b.WriteString("\nBrain unreachable from t=5s + double relay crash at t=6s (local path cache)\n")
	b.WriteString("fault schedule:\n" + indent(cf.Timeline))
	fmt.Fprintf(&b, "cache fallbacks: %d, outage %.0f ms, recovered %.0f ms after crash, frames played %d\n",
		cf.CacheFallbacks, cf.OutageMs, cf.RecoveredAfterMs, cf.FramesPlayed)

	bo := BrainOutage(seed)
	b.WriteString("\nBrain-replica outage: 3 Paxos replicas, replica 1 down t=4s..12s\n")
	b.WriteString("fault schedule:\n" + indent(bo.Timeline))
	fmt.Fprintf(&b, "path lookups: %d, replica failovers: %d, failed lookups: %d, viewers started: %d/%d\n",
		bo.Lookups, bo.Failovers, bo.LookupFailures, bo.Started, bo.Viewers)
	if bo.LookupFailures == 0 && bo.Started == bo.Viewers {
		b.WriteString("no routing outage: every lookup answered by a live replica\n")
	}

	qp := QuorumPartition(seed)
	b.WriteString("\nShard-quorum partition: replica 2 cut from consensus t=4s..10s (log convergence)\n")
	b.WriteString("fault schedule:\n" + indent(qp.Timeline))
	fmt.Fprintf(&b, "SIB proposals: %d, committed during partition: %v, committed at end: %v\n",
		qp.Proposals, qp.CommittedDuring, qp.CommittedAfter)
	if qp.Converged {
		b.WriteString("replica logs converged after heal: the partitioned replica caught up\n")
	}

	b.WriteString(rollingRestartSection(seed))

	fc := FlashCrowdCohort(seed)
	b.WriteString("\nMillion-viewer flash crowd: load x2 for hour 2 (cohort-aggregated macro run)\n")
	fmt.Fprintf(&b, "represented viewers: %.0f (%d traced exactly), peak concurrency: %d\n",
		fc.Viewers, fc.TracerViews, fc.PeakConcurrency)
	fmt.Fprintf(&b, "0-stall: %.2f%%, fast startup: %.2f%%, rebuffer ratio: %.5f\n",
		fc.ZeroStallPct, fc.FastStartPct, fc.RebufferRatio)
	if fc.PeakConcurrency >= 500_000 && fc.ZeroStallPct > 80 {
		b.WriteString("QoE holds through the surge: the cohort engine absorbs the flash crowd\n")
	}
	return b.String()
}

func indent(s string) string {
	if s == "" {
		return "  (none)\n"
	}
	return "  " + strings.TrimRight(strings.ReplaceAll(s, "\n", "\n  "), " ") + "\n"
}
