package core

import (
	"container/heap"
	"sort"
	"time"

	"livenet/internal/brain"
	"livenet/internal/brainfed"
	"livenet/internal/geo"
	"livenet/internal/telemetry"
	"livenet/internal/workload"
)

// lnStream is the per-(site, stream) session-level state: the macro
// analogue of a node's Stream FIB entry plus its GoP cache indicator.
type lnStream struct {
	upstream   int   // previous hop toward the producer (-1 at producer)
	path       []int // actual producer→this-site path
	viewers    int   // locally attached viewers
	downstream map[int]bool
}

// lnKey packs a directed link into a map key.
func lnKey(a, b int) int64 { return int64(a)<<32 | int64(uint32(b)) }

// lnFabric bundles the LiveNet control plane and overlay session state:
// the Streaming Brain, the per-site stream FIBs, and the link/node load
// accounting that feeds Global Discovery. The per-viewer and cohort
// engines drive the same fabric — only how viewers attach differs.
type lnFabric struct {
	e  *macroEnv
	br brain.Service

	adj      [][]int // sparse peer adjacency (nil = full mesh)
	streams  []map[uint32]*lnStream
	linkLoad map[int64]int
	nodeLoad []int

	nextRefresh time.Duration
}

// newLNFabric builds the Brain (monolithic or federated), registers every
// channel at its producer site, and runs the epoch-0 Global Discovery
// refresh.
func newLNFabric(e *macroEnv) *lnFabric {
	cfg := e.cfg
	n := cfg.Sites

	bcfg := brain.Config{N: n, LastResort: e.world.IXPSites()}
	if cfg.DisableLastResort {
		bcfg.LastResort = nil
	}
	if cfg.KPaths > 0 {
		bcfg.K = cfg.KPaths
	}
	adj := peerAdjacency(e.world, cfg.MaxPeers)
	var br brain.Service
	if cfg.Regions > 0 {
		br = brainfed.New(brainfed.Config{
			Brain:     bcfg,
			Partition: brainfed.ByRegion(e.world, cfg.Regions),
		})
	} else {
		br = brain.New(bcfg)
	}

	f := &lnFabric{
		e:           e,
		br:          br,
		adj:         adj,
		streams:     make([]map[uint32]*lnStream, n),
		linkLoad:    make(map[int64]int),
		nodeLoad:    make([]int, n),
		nextRefresh: 10 * time.Minute,
	}
	for i := range f.streams {
		f.streams[i] = make(map[uint32]*lnStream)
	}

	// Register all channels: the producer site carries each stream for
	// the whole run (broadcasters stay live).
	for rank, ch := range e.gen.Channels() {
		p := e.chProducer[rank]
		f.streams[p][ch.StreamID] = &lnStream{upstream: -1, path: []int{p}, downstream: make(map[int]bool)}
		f.nodeLoad[p]++
		br.RegisterStream(ch.StreamID, p)
	}
	f.refresh(0)
	return f
}

// perLinkCap is a link's share of site capacity (min of both endpoints).
func (f *lnFabric) perLinkCap(a, b int) float64 {
	c := f.e.world.Sites[a].CapacityMbps
	if cb := f.e.world.Sites[b].CapacityMbps; cb < c {
		c = cb
	}
	return c * 1e6 / 8
}

func (f *lnFabric) reportLink(i, j int, t time.Duration) {
	util := 0.0
	if !f.e.cfg.DisableLoadWeights {
		util = min(1, float64(f.linkLoad[lnKey(i, j)])*f.e.cfg.StreamBitrate/8/f.perLinkCap(i, j))
	}
	f.br.ReportLink(i, j, f.e.world.RTT(i, j), f.e.linkLoss(i, j, t), util)
}

// refresh runs one Global Discovery report + routing epoch (the paper's
// 10-minute cadence).
func (f *lnFabric) refresh(t time.Duration) {
	e := f.e
	n := e.cfg.Sites
	for i := 0; i < n; i++ {
		if f.adj != nil {
			for _, j := range f.adj[i] {
				f.reportLink(i, j, t)
			}
		} else {
			for j := 0; j < n; j++ {
				if i != j {
					f.reportLink(i, j, t)
				}
			}
		}
		util := 0.0
		if !e.cfg.DisableLoadWeights {
			util = min(1, float64(f.nodeLoad[i])*e.cfg.StreamBitrate/(e.world.Sites[i].CapacityMbps*1e6))
		}
		f.br.ReportNodeLoad(i, util)
		if util >= 0.8 {
			f.br.OverloadAlarm(i, util)
		}
	}
	f.br.AdvanceEpoch()
	e.sampleLossByHour(t)
}

// advanceTo runs every refresh epoch due at or before t.
func (f *lnFabric) advanceTo(t time.Duration) {
	for f.nextRefresh <= t {
		f.refresh(f.nextRefresh)
		f.nextRefresh += 10 * time.Minute
	}
}

// teardown cascades an unsubscription up the chain.
func (f *lnFabric) teardown(site int, sid uint32) {
	st := f.streams[site][sid]
	if st == nil || st.viewers > 0 || len(st.downstream) > 0 || st.upstream == -1 {
		return
	}
	delete(f.streams[site], sid)
	f.nodeLoad[site]--
	up := st.upstream
	f.linkLoad[lnKey(up, site)]--
	if upSt := f.streams[up][sid]; upSt != nil {
		delete(upSt.downstream, site)
		f.teardown(up, sid)
	}
}

// finish attaches a final carried-streams report per site so the
// GlobalView fan-out table reflects end-of-run overlay state (the session
// engine has no per-packet registries, so the snapshots are empty), then
// folds the Brain aggregates into the result.
func (f *lnFabric) finish() {
	e := f.e
	for site := 0; site < e.cfg.Sites; site++ {
		sids := make([]uint32, 0, len(f.streams[site]))
		for sid := range f.streams[site] {
			sids = append(sids, sid)
		}
		sort.Slice(sids, func(a, b int) bool { return sids[a] < sids[b] })
		f.br.ReportNodeTelemetry(site, telemetry.Snapshot{}, sids)
	}
	e.res.GlobalView = f.br.GlobalView()
	e.res.BrainMetrics = f.br.Metrics()
}

// runMacroLiveNet executes the LiveNet session-level engine: the real
// Streaming Brain computes paths over the real Eq. 2–3 weights; viewing
// sessions establish/graft subscriptions exactly like the packet-level
// node code (including cache hits and the long-chain effect); only the
// per-packet data plane is replaced by the calibrated delay/loss model.
func runMacroLiveNet(cfg MacroConfig) *MacroResult {
	e := newMacroEnv(cfg, SystemLiveNet)
	f := newLNFabric(e)
	defer f.br.Close()
	chans := e.gen.Channels()

	// Process events in time order.
	const dayChunk = 24 * time.Hour
	for chunk := time.Duration(0); chunk < e.horizon; chunk += dayChunk {
		views := e.gen.Views(chunk, min(chunk+dayChunk, e.horizon))
		for _, v := range views {
			// Departures and refreshes due before this arrival.
			for len(e.deps) > 0 && e.deps[0].at <= v.Start {
				d := heap.Pop(&e.deps).(departure)
				if st := f.streams[d.site][d.sid]; st != nil {
					st.viewers--
					f.teardown(d.site, d.sid)
				}
				e.active--
			}
			f.advanceTo(v.Start)

			e.handleLiveNetView(f, v, chans)

			e.active++
			if ds := e.dayStats(v.Start); e.active > ds.PeakConcurrency {
				ds.PeakConcurrency = e.active
			}
			heap.Push(&e.deps, departure{at: v.Start + v.Duration, site: e.world.NearestSite(v.Lat, v.Lon), sid: chans[v.Channel].StreamID})
		}
	}
	f.finish()
	e.foldUniquePaths()
	return e.res
}

// handleLiveNetView runs Algorithm 1 for one viewing session.
func (e *macroEnv) handleLiveNetView(f *lnFabric, v workload.View, chans []workload.Channel) {
	ch := chans[v.Channel]
	sid := ch.StreamID
	consumer := e.world.NearestSite(v.Lat, v.Lon)
	producer := e.chProducer[v.Channel]
	intl := v.Country != ch.Country
	cp := e.drawClient()
	t := v.Start

	st := f.streams[consumer][sid]
	prefetched := !e.cfg.DisablePrefetch && ch.Popular
	localHit := st != nil || prefetched

	var path []int
	var firstPktMs float64
	var lastResort, longChain bool

	if st != nil {
		// Stream already flowing here: serve from the GoP cache.
		st.viewers++
		path = st.path
		firstPktMs = 2 + e.rng.Float64()*6
		if e.cfg.DisableGoPCache {
			// Without cached GoPs the viewer waits for the next I frame
			// (~half a GoP = up to 2 s).
			firstPktMs += e.rng.Float64() * 2000
		}
	} else {
		respMs := 0.0
		if !prefetched {
			respMs = e.sampleRespTime(t)
			e.res.RespByHour.Add(workload.Hour(t), respMs)
		}
		paths, err := f.br.Lookup(sid, consumer)
		var best []int
		if err != nil || len(paths) == 0 {
			best = []int{producer, consumer} // degraded fallback
		} else {
			best = paths[0]
			if len(best) == 3 && isLastResort(e.world, best[1]) && len(paths) == 1 {
				lastResort = true
			}
		}
		// Establishment walk: backtrack from the consumer toward the
		// producer; the first node already carrying the stream grafts us
		// (cache hit), possibly yielding a longer actual path (§4.4).
		actual, walkRTTms := graftLiveNet(e, f, sid, best)
		path = actual
		if len(actual) > len(best) {
			longChain = true
		}
		st = f.streams[consumer][sid]
		st.viewers++
		burst := 15 + e.rng.Float64()*35
		firstPktMs = respMs + walkRTTms + burst
		if e.cfg.DisableGoPCache {
			firstPktMs += e.rng.Float64() * 2000
		}
	}

	cdnMs := e.liveNetPathDelay(path)
	stalls := e.stallsFor(SystemLiveNet, v.Duration, path, cp, t)
	startupMs := cp.rttMs + firstPktMs + 90 + e.rng.Float64()*130 + 20 // request + fill + decode
	if e.rng.Bernoulli(0.065) {
		startupMs += 300 + e.rng.Float64()*1400 // slow-device / DNS / access tail
	}
	e.recordView(t, path, cdnMs, firstPktMs, localHit, intl, stalls, startupMs, lastResort, longChain)
	e.notePath(t, path)
}

// graftLiveNet installs session state along the requested path, grafting
// onto the first node (from the consumer backwards) that already carries
// the stream. It returns the actual path and the establishment walk RTT.
func graftLiveNet(e *macroEnv, f *lnFabric, sid uint32, best []int) ([]int, float64) {
	// Find graft point: last index (closest to consumer) whose site has
	// the stream. The producer always has it.
	graft := 0
	for i := len(best) - 1; i >= 0; i-- {
		if f.streams[best[i]][sid] != nil {
			graft = i
			break
		}
	}
	// Walk cost: subscribe messages travel consumer→…→graft (half RTT per
	// hop), and the first data flows back down (half RTT per hop): one
	// full RTT per traversed hop in total.
	walkMs := 0.0
	for i := len(best) - 1; i > graft; i-- {
		walkMs += float64(e.world.RTT(best[i-1], best[i])) / float64(time.Millisecond)
	}
	// Install states below the graft point.
	for i := graft + 1; i < len(best); i++ {
		prev := best[i-1]
		site := best[i]
		if f.streams[site][sid] == nil {
			actual := append(append([]int(nil), f.streams[prev][sid].path...), site)
			f.streams[site][sid] = &lnStream{upstream: prev, path: actual, downstream: make(map[int]bool)}
			f.nodeLoad[site]++
			f.linkLoad[lnKey(prev, site)]++
			f.streams[prev][sid].downstream[site] = true
		}
	}
	consumer := best[len(best)-1]
	return f.streams[consumer][sid].path, walkMs
}

// liveNetPathDelay: one-way fast-path delay = Σ (hop RTT/2 + per-hop
// processing).
func (e *macroEnv) liveNetPathDelay(path []int) float64 {
	procMs := float64(e.cfg.LiveNetHopProc) / float64(time.Millisecond)
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		rtt := float64(e.world.RTT(path[i], path[i+1])) / float64(time.Millisecond)
		total += rtt/2 + procMs
	}
	if len(path) == 1 {
		total = procMs // 0-hop: producer == consumer, processing only
	}
	return total
}

// sampleRespTime models the Path Decision response time (§7.1: replicas
// are widely deployed, so a share of consumers are near one; queueing
// grows with load, giving Figure 10(a)'s spread).
func (e *macroEnv) sampleRespTime(t time.Duration) float64 {
	proc := 2 + e.rng.Float64()*6
	var rtt float64
	if e.rng.Bernoulli(0.35) {
		rtt = e.rng.Float64() * 3 // co-located replica
	} else {
		rtt = 10 + e.rng.Float64()*45
	}
	load := e.gen.RateAt(t) / e.gen.RateAt(peakTimeOfDay(t))
	queue := load * load * e.rng.Float64() * 25
	return proc + rtt + queue
}

// peakTimeOfDay returns the same day's 21:00 home-market local time.
func peakTimeOfDay(t time.Duration) time.Duration {
	day := time.Duration(workload.Day(t)) * 24 * time.Hour
	// 21:00 local at the home longitude ≈ 13.8h UTC.
	return day + 13*time.Hour + 48*time.Minute
}

func isLastResort(w *geo.World, site int) bool {
	return w.Sites[site].IXP
}

// notePath tracks unique overlay paths per day (Table 3's observation
// that unique paths grew ~20% during the festival).
func (e *macroEnv) notePath(t time.Duration, path []int) {
	if e.uniquePaths == nil {
		e.uniquePaths = make(map[int]map[string]struct{})
	}
	d := e.day(t)
	m := e.uniquePaths[d]
	if m == nil {
		m = make(map[string]struct{})
		e.uniquePaths[d] = m
	}
	key := make([]byte, 0, len(path)*2)
	for _, p := range path {
		key = append(key, byte(p), byte(p>>8))
	}
	m[string(key)] = struct{}{}
}

// foldUniquePaths copies the per-day unique path counts into DayStats.
func (e *macroEnv) foldUniquePaths() {
	for d, m := range e.uniquePaths {
		if ds := e.res.ByDay[d]; ds != nil {
			ds.UniquePaths = len(m)
		}
	}
}
