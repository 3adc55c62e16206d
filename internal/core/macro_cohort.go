package core

import (
	"math"
	"time"

	"livenet/internal/client"
	"livenet/internal/workload"
)

// This file holds the cohort-aggregated macro engines (DESIGN.md §11).
// Instead of one event per viewer, the workload arrives as per-(edge,
// channel, rung) counts from a workload.CohortStream, and QoE is
// accounted three ways:
//
//   - Stream establishers (the first viewer to pull a stream to an edge)
//     are simulated exactly through the same handle*View code as the
//     per-viewer engines — the overlay state machine (Brain lookups,
//     grafting, teardown, L2 assignment) runs unmodified.
//   - A sampled tracer cohort (MacroConfig.TracerSample of cache-hit
//     viewers, drawn from the engine's seeded RNG) is also simulated
//     exactly, supplying distribution-level stats.
//   - The remaining mass of each batch enters client.Cohort by analytic
//     expectation: startup mean and P(fast start) from the closed-form
//     jitter model, stall rates from the same loss/recovery formulas
//     stallMean uses, integrated over the client-profile mixture and the
//     bounded-Pareto duration quadrature.
//
// Batch expectations are memoized per (site, stream, rung) within each
// 10-minute epoch — link loss (and thus the stall rate) only moves on
// epoch boundaries. A path that changes mid-epoch (teardown followed by
// re-establishment) reuses the epoch's expectation; the drift is bounded
// by one epoch and vanishes in the aggregates.

// clientClass mirrors macroEnv.drawClient as a mixture of uniform
// distributions, for analytic expectation instead of sampling.
type clientClass struct {
	w                float64
	rttMin, rttMax   float64
	lossMin, lossMax float64
	dipRate          float64
}

var clientClasses = []clientClass{
	{w: 0.90, rttMin: 8, rttMax: 38, lossMin: 0, lossMax: 0.004, dipRate: 0.0002},
	{w: 0.10, rttMin: 20, rttMax: 80, lossMin: 0.004, lossMax: 0.03, dipRate: 0.004},
}

// rungFactor scales the stall model's packet rate for rung r (each rung
// halves the bitrate).
func rungFactor(r int) float64 { return math.Ldexp(1, -r) }

// uniformCube is E[X³] for X ~ U(a, b) — the residual-loss term of the
// stall model is cubic in the last-mile loss rate.
func uniformCube(a, b float64) float64 {
	if b <= a {
		return a * a * a
	}
	return (b*b*b*b - a*a*a*a) / (4 * (b - a))
}

// probLE estimates P(base + Σ U(0, spanᵢ) ≤ limit) by midpoint product
// quadrature (8 points per span; runs once per engine).
func probLE(limit, base float64, spans []float64) float64 {
	if len(spans) == 0 {
		if base <= limit {
			return 1
		}
		return 0
	}
	const q = 8
	acc := 0.0
	for k := 0; k < q; k++ {
		acc += probLE(limit, base+(float64(k)+0.5)/q*spans[0], spans[1:])
	}
	return acc / q
}

// cohortStartup returns the mean startup delay (ms) and P(startup ≤ 1 s)
// of a cache-hit view — the only kind batches contain, since the
// establisher of every stream is simulated exactly. The jitter spans
// mirror handle*View's draws term by term.
func (e *macroEnv) cohortStartup(sys System) (mean, pFast float64) {
	fpMin, fpSpan := 2.0, 6.0
	constMs, fillSpan := 90.0+20.0, 130.0
	tailP, tailSpan := 0.065, 1400.0
	if sys == SystemHier {
		fpMin, fpSpan = 3.0, 8.0
		constMs, fillSpan = 110.0+20.0, 170.0
		tailP, tailSpan = 0.05, 1600.0
	}
	gopSpan := 0.0
	if sys == SystemLiveNet && e.cfg.DisableGoPCache {
		gopSpan = 2000
	}
	for _, c := range clientClasses {
		base := c.rttMin + fpMin + constMs
		spans := []float64{c.rttMax - c.rttMin, fpSpan, fillSpan}
		if gopSpan > 0 {
			spans = append(spans, gopSpan)
		}
		clsMean := base
		for _, s := range spans {
			clsMean += s / 2
		}
		clsMean += tailP * (300 + tailSpan/2)
		mean += c.w * clsMean
		pNoTail := probLE(1000, base, spans)
		pTail := probLE(1000, base+300, append(append([]float64(nil), spans...), tailSpan))
		pFast += c.w * ((1-tailP)*pNoTail + tailP*pTail)
	}
	return mean, pFast
}

// cohortStallRate is the expected stall events per viewing second for one
// client class: stallMean's formula with the last-mile draws replaced by
// their closed-form uniform moments.
func (e *macroEnv) cohortStallRate(sys System, path []int, c clientClass, t time.Duration, pktFactor float64) float64 {
	const pktRate = 130.0
	perPkt := 0.0
	for i := 0; i+1 < len(path); i++ {
		rho := e.linkLoss(path[i], path[i+1], t)
		rttMs := float64(e.world.RTT(path[i], path[i+1])) / float64(time.Millisecond)
		if sys == SystemLiveNet {
			perPkt += rho * rho * rho * (1 + rttMs/150) * 2
		} else {
			perPkt += rho * min(1, 1.5*rttMs/300) * 0.001
		}
	}
	rttMean := (c.rttMin + c.rttMax) / 2
	perPkt += uniformCube(c.lossMin, c.lossMax) * (1 + rttMean/150) * 2
	dipStall := 0.65
	if sys == SystemLiveNet {
		dipStall = 0.26
	}
	return pktRate*pktFactor*perPkt + c.dipRate*dipStall
}

// cohortBatch evaluates the analytic QoE expectations for one cohort's
// cache-hit viewers on the given serving path at time t.
func (e *macroEnv) cohortBatch(sys System, path []int, cdnMs float64, rung int, t time.Duration,
	durQ []workload.DurPoint, meanSecs, startupMean, pFast float64) client.CohortBatch {

	pf := rungFactor(rung)
	pZero, stallRate := 0.0, 0.0
	for _, c := range clientClasses {
		rate := e.cohortStallRate(sys, path, c, t, pf)
		stallRate += c.w * rate
		acc := 0.0
		for _, d := range durQ {
			acc += d.Weight * math.Exp(-rate*d.Secs)
		}
		pZero += c.w * acc
	}
	return client.CohortBatch{
		MeanViewSecs:     meanSecs,
		CDNDelayMs:       cdnMs,
		PathLen:          float64(len(path) - 1),
		StreamingMs:      740 + cdnMs, // E[fixed part] + E[cdn·(1+ε)]
		StartupMs:        startupMean,
		PZeroStall:       pZero,
		PFastStart:       pFast,
		StallsPerView:    stallRate * meanSecs,
		StallSecsPerView: stallRate * meanSecs * stallEventSecs,
	}
}

// cohMemoKey memoizes batch expectations per (site, stream, rung) within
// a routing epoch.
type cohMemoKey struct {
	site int
	sid  uint32
	rung int
}

// cohortAddBatch folds a batch into the run and day aggregates.
func (e *macroEnv) cohortAddBatch(t time.Duration, n float64, cb client.CohortBatch) {
	e.coh.AddBatch(n, cb)
	ds := e.dayStats(t)
	if ds.Cohort == nil {
		ds.Cohort = &client.Cohort{}
	}
	ds.Cohort.AddBatch(n, cb)
}

// cohortView synthesizes one exact viewing session at the given edge
// site: duration from the bounded-Pareto model, origin at the site
// itself, so Hier's handler resolves the same edge. The LiveNet engine
// hands the edge to its handler instead: geo.World.NearestSite maps a
// site's own coordinates to that site (pinned in geo's tests), so
// resolving it again could only return the same answer.
func (e *macroEnv) cohortView(site, chRank int, t time.Duration, wcfg workload.Config) workload.View {
	durSecs := e.rng.Pareto(wcfg.ViewMinSecs, wcfg.ViewAlpha)
	if durSecs > wcfg.ViewMaxSecs {
		durSecs = wcfg.ViewMaxSecs
	}
	e.curViewSecs = durSecs
	s := e.world.Sites[site]
	return workload.View{
		Start:    t,
		Duration: time.Duration(durSecs * float64(time.Second)),
		Channel:  chRank,
		Lat:      s.Lat, Lon: s.Lon, Country: s.Country,
	}
}

// cohortFinish installs the pooled aggregates into the result.
func (e *macroEnv) cohortFinish() *MacroResult {
	e.foldUniquePaths()
	res := e.res
	res.CohortQoE = e.coh
	res.TracerViews = e.coh.TracerViews
	res.Views = int(e.coh.Viewers + 0.5)
	return res
}

// runMacroLiveNetCohort is the cohort-aggregated LiveNet engine: the same
// Brain, grafting, and teardown as runMacroLiveNet, driven by counts.
func runMacroLiveNetCohort(cfg MacroConfig) *MacroResult {
	e := newMacroEnv(cfg, SystemLiveNet)
	e.coh = &client.Cohort{}
	f := newLNFabric(e)
	defer f.br.Close()
	chans := e.gen.Channels()

	wcfg := cfg.Workload.Normalized()
	meanSecs := wcfg.MeanViewSecs()
	durQ := wcfg.DurationQuadrature(12)
	startupMean, pFast := e.cohortStartup(SystemLiveNet)

	cs := workload.NewCohortStream(e.gen, workload.CohortConfig{
		Edges:     cfg.Sites,
		EdgeOf:    e.world.NearestSite,
		RungShare: cfg.RungShares,
	}, e.src.Stream("cohort"))

	memo := make(map[cohMemoKey]client.CohortBatch)
	epoch := -1
	cs.Run(e.horizon, func(b *workload.CohortBucket) {
		t := b.Start
		f.advanceTo(t)
		if ep := int(t / (10 * time.Minute)); ep != epoch {
			epoch = ep
			memo = make(map[cohMemoKey]client.CohortBatch)
		}
		for _, a := range b.Arrivals {
			site, rank, k := a.Key.Edge, a.Key.Channel, a.Count
			sid := chans[rank].StreamID
			exact := 0
			e.pktFactor = rungFactor(a.Key.Rung)
			if f.streams[site][sid] == nil {
				e.handleLiveNetView(f, e.cohortView(site, rank, t, wcfg), chans, site)
				exact++
			}
			if rem := k - exact; rem > 0 {
				if nTr := e.rng.Binomial(rem, cfg.TracerSample); nTr > 0 {
					for i := 0; i < nTr; i++ {
						e.handleLiveNetView(f, e.cohortView(site, rank, t, wcfg), chans, site)
					}
					exact += nTr
				}
			}
			e.pktFactor = 1
			if rem := k - exact; rem > 0 {
				st := f.streams[site][sid]
				st.viewers += rem
				mk := cohMemoKey{site: site, sid: sid, rung: a.Key.Rung}
				cb, ok := memo[mk]
				if !ok {
					cb = e.cohortBatch(SystemLiveNet, st.path, e.liveNetPathDelay(st.path),
						a.Key.Rung, t, durQ, meanSecs, startupMean, pFast)
					memo[mk] = cb
				}
				e.cohortAddBatch(t, float64(rem), cb)
			}
			e.active += k
		}
		if ds := e.dayStats(t); e.active > ds.PeakConcurrency {
			ds.PeakConcurrency = e.active
		}
		for _, d := range b.Departures {
			site := d.Key.Edge
			sid := chans[d.Key.Channel].StreamID
			if st := f.streams[site][sid]; st != nil {
				st.viewers -= d.Count
				f.teardown(site, sid)
			}
			e.active -= d.Count
		}
	})
	f.finish()
	return e.cohortFinish()
}

// runMacroHierCohort is the cohort-aggregated baseline engine.
func runMacroHierCohort(cfg MacroConfig) *MacroResult {
	e := newMacroEnv(cfg, SystemHier)
	e.coh = &client.Cohort{}
	f := newHierFabric(e)
	chans := e.gen.Channels()

	wcfg := cfg.Workload.Normalized()
	meanSecs := wcfg.MeanViewSecs()
	durQ := wcfg.DurationQuadrature(12)
	startupMean, pFast := e.cohortStartup(SystemHier)

	cs := workload.NewCohortStream(e.gen, workload.CohortConfig{
		Edges:     cfg.Sites,
		EdgeOf:    f.h.EdgeFor,
		RungShare: cfg.RungShares,
	}, e.src.Stream("cohort"))

	memo := make(map[cohMemoKey]client.CohortBatch)
	epoch := -1
	cs.Run(e.horizon, func(b *workload.CohortBucket) {
		t := b.Start
		f.advanceTo(t)
		if ep := int(t / (10 * time.Minute)); ep != epoch {
			epoch = ep
			memo = make(map[cohMemoKey]client.CohortBatch)
		}
		for _, a := range b.Arrivals {
			l1, rank, k := a.Key.Edge, a.Key.Channel, a.Count
			sid := chans[rank].StreamID
			exact := 0
			e.pktFactor = rungFactor(a.Key.Rung)
			if f.getDown(l1)[sid] == nil {
				e.handleHierView(f, e.cohortView(l1, rank, t, wcfg), chans)
				exact++
			}
			if rem := k - exact; rem > 0 {
				if nTr := e.rng.Binomial(rem, cfg.TracerSample); nTr > 0 {
					for i := 0; i < nTr; i++ {
						e.handleHierView(f, e.cohortView(l1, rank, t, wcfg), chans)
					}
					exact += nTr
				}
			}
			e.pktFactor = 1
			if rem := k - exact; rem > 0 {
				st := f.getDown(l1)[sid]
				st.viewers += rem
				mk := cohMemoKey{site: l1, sid: sid, rung: a.Key.Rung}
				cb, ok := memo[mk]
				if !ok {
					cdnMs := float64(f.h.PathDelay(st.path, f.lossAt(t))) / float64(time.Millisecond)
					cb = e.cohortBatch(SystemHier, st.path, cdnMs,
						a.Key.Rung, t, durQ, meanSecs, startupMean, pFast)
					memo[mk] = cb
				}
				e.cohortAddBatch(t, float64(rem), cb)
			}
			e.active += k
		}
		if ds := e.dayStats(t); e.active > ds.PeakConcurrency {
			ds.PeakConcurrency = e.active
		}
		for _, d := range b.Departures {
			f.depart(d.Key.Edge, chans[d.Key.Channel].StreamID, d.Count)
			e.active -= d.Count
		}
	})
	return e.cohortFinish()
}
