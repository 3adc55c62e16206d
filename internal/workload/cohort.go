package workload

import (
	"cmp"
	"math"
	"slices"
	"time"

	"livenet/internal/geo"
	"livenet/internal/sim"
)

// This file is the workload half of the million-viewer cohort machinery
// (DESIGN.md §11): instead of materializing one View per viewer, a
// CohortStream emits arrival/departure *counts* per (edge cluster,
// channel, bitrate rung) bucket by bucket, drawn from the same Zipf
// channel popularity, diurnal rate curve, viewer-origin geography, and
// bounded-Pareto duration model as Generator.Views. Cost per bucket is
// O(channels × edges), independent of the viewer count, which is what
// lets the macro sim run the paper's Taobao-scale load (millions of
// concurrent views) in seconds.

// CohortKey identifies one viewer cohort: everyone watching the same
// channel from the same edge cluster at the same bitrate rung.
type CohortKey struct {
	Edge    int // edge cluster (site) index
	Channel int // channel rank
	Rung    int // bitrate rung (0 = top)
}

// CohortCount is an aggregate arrival or departure event.
type CohortCount struct {
	Key   CohortKey
	Count int
}

// CohortBucket is one time bucket of aggregate workload. Arrivals are
// viewers joining during the bucket; Departures are viewers leaving by
// its end (including same-bucket short views). Both slices are sorted by
// (Channel, Edge, Rung) so consumers iterate deterministically.
type CohortBucket struct {
	Start, Width         time.Duration
	Arrivals, Departures []CohortCount
}

// CohortConfig parameterizes cohort aggregation.
type CohortConfig struct {
	// Edges is the number of edge clusters; EdgeOf maps a viewer origin
	// to one of them (e.g. geo.World.NearestSite).
	Edges  int
	EdgeOf func(lat, lon float64) int
	// RungShare splits viewers across bitrate rungs (normalized; nil or
	// single-element means everyone watches rung 0).
	RungShare []float64
	// OriginProbes sizes the Monte-Carlo estimate of the per-edge viewer
	// share (default 20000 probes of geo.ViewerOrigin).
	OriginProbes int
	// Bucket is the aggregation granularity (default 1 minute, matching
	// Generator.Views' Poisson thinning buckets).
	Bucket time.Duration
}

func (c CohortConfig) withDefaults() CohortConfig {
	if c.OriginProbes <= 0 {
		c.OriginProbes = 20000
	}
	if c.Bucket <= 0 {
		c.Bucket = time.Minute
	}
	if len(c.RungShare) == 0 {
		c.RungShare = []float64{1}
	}
	return c
}

// CohortStream turns a Generator's aggregate dynamics into per-cohort
// arrival/departure counts. It owns its RNG: constructing or running one
// never perturbs the Generator's per-viewer draw sequence.
type CohortStream struct {
	gen *Generator
	cc  CohortConfig
	rng *sim.Rand

	pEdge  []float64 // per-edge viewer share (Monte-Carlo from ViewerOrigin)
	pChan  []float64 // Zipf pmf over channel ranks
	offPMF []float64 // departure bucket-offset pmf (arrival-jitter smeared)

	cursor time.Duration    // next bucket start
	wheel  []map[uint64]int // pending departures by packKey, ring indexed by bucket
	pos    int              // wheel slot for the bucket at cursor

	scratch []packedCount
}

// packKey packs a cohort key into a uint64 whose numeric order is the
// buckets' (Channel, Edge, Rung) order: 22 bits of channel, then 21 bits
// each of edge and rung.
func packKey(k CohortKey) uint64 {
	return uint64(k.Channel)<<42 | uint64(k.Edge)<<21 | uint64(k.Rung)
}

func unpackKey(p uint64) CohortKey {
	const mask = 1<<21 - 1
	return CohortKey{Channel: int(p >> 42), Edge: int(p >> 21 & mask), Rung: int(p & mask)}
}

type packedCount struct {
	key   uint64
	count int
}

// NewCohortStream builds a cohort stream over gen's configuration. The
// rng must be dedicated to this stream (label-addressed via sim.Source),
// so cohort runs replay deterministically.
func NewCohortStream(gen *Generator, cc CohortConfig, rng *sim.Rand) *CohortStream {
	cc = cc.withDefaults()
	if cc.Edges <= 0 || cc.EdgeOf == nil {
		panic("workload: CohortConfig needs Edges and EdgeOf")
	}
	if cc.Edges >= 1<<21 || len(cc.RungShare) >= 1<<21 || gen.cfg.Channels >= 1<<22 {
		panic("workload: cohort keys exceed the packed key's field widths")
	}
	// Normalize rung shares.
	total := 0.0
	for _, w := range cc.RungShare {
		total += w
	}
	shares := make([]float64, len(cc.RungShare))
	for i, w := range cc.RungShare {
		shares[i] = w / total
	}
	cc.RungShare = shares

	s := &CohortStream{gen: gen, cc: cc, rng: rng}

	// Edge share: probe the same origin distribution per-viewer draws use.
	s.pEdge = make([]float64, cc.Edges)
	for i := 0; i < cc.OriginProbes; i++ {
		lat, lon, _ := geo.ViewerOrigin(rng)
		if e := cc.EdgeOf(lat, lon); e >= 0 && e < cc.Edges {
			s.pEdge[e]++
		}
	}
	for i := range s.pEdge {
		s.pEdge[i] /= float64(cc.OriginProbes)
	}

	// Channel popularity: the same normalized harmonic weights sim.Zipf
	// samples from.
	cfg := gen.cfg
	s.pChan = make([]float64, cfg.Channels)
	sum := 0.0
	for i := range s.pChan {
		s.pChan[i] = 1 / math.Pow(float64(i+1), cfg.ZipfS)
		sum += s.pChan[i]
	}
	for i := range s.pChan {
		s.pChan[i] /= sum
	}

	s.offPMF = departureOffsetPMF(cfg, cc.Bucket)
	s.wheel = make([]map[uint64]int, len(s.offPMF))
	for i := range s.wheel {
		s.wheel[i] = make(map[uint64]int)
	}
	return s
}

// EdgeShare returns the estimated per-edge viewer share (sums to ~1).
func (s *CohortStream) EdgeShare() []float64 { return s.pEdge }

// Run advances the stream from its cursor to `to`, invoking fn once per
// bucket. Calls are cumulative: Run(8h) then Run(24h) covers one day.
func (s *CohortStream) Run(to time.Duration, fn func(*CohortBucket)) {
	w := s.cc.Bucket
	for ; s.cursor < to; s.cursor += w {
		b := CohortBucket{Start: s.cursor, Width: w}

		lambda := s.gen.RateAt(s.cursor+w/2) * w.Seconds()
		n := poissonDraw(s.rng, lambda)

		// Split total arrivals channel → edge → rung with sequential
		// conditional binomials: the joint counts are exactly multinomial
		// in the product distribution, matching per-viewer sampling in
		// distribution at every marginal.
		s.splitCounts(n, s.pChan, func(ch, kc int) {
			s.splitCounts(kc, s.pEdge, func(edge, ke int) {
				s.splitRungs(ke, func(rung, k int) {
					key := CohortKey{Edge: edge, Channel: ch, Rung: rung}
					b.Arrivals = append(b.Arrivals, CohortCount{Key: key, Count: k})
					// Schedule departures across future buckets.
					pk := packKey(key)
					s.splitCounts(k, s.offPMF, func(off, kd int) {
						s.wheel[(s.pos+off)%len(s.wheel)][pk] += kd
					})
				})
			})
		})

		// Drain this bucket's departures in deterministic key order.
		due := s.wheel[s.pos]
		if len(due) > 0 {
			s.scratch = s.scratch[:0]
			for key, k := range due {
				s.scratch = append(s.scratch, packedCount{key, k})
			}
			clear(due)
			slices.SortFunc(s.scratch, func(a, b packedCount) int { return cmp.Compare(a.key, b.key) })
			b.Departures = make([]CohortCount, len(s.scratch))
			for i, pc := range s.scratch {
				b.Departures[i] = CohortCount{Key: unpackKey(pc.key), Count: pc.count}
			}
		}
		s.pos = (s.pos + 1) % len(s.wheel)

		fn(&b)
	}
}

// splitCounts partitions n draws across the categorical distribution
// probs via sequential conditional binomials, calling fn(i, k) once for
// every index with k > 0 draws, in increasing index order. An index after
// which no more than 1e-12 of the mass remains takes everything left.
func (s *CohortStream) splitCounts(n int, probs []float64, fn func(i, k int)) {
	rem, remP := n, 1.0
	for i, p := range probs {
		if rem == 0 {
			return
		}
		if p <= 0 {
			continue
		}
		cond := p / remP
		var k int
		if cond >= 1 || i == len(probs)-1 {
			k = rem
		} else {
			k = s.rng.Binomial(rem, cond)
		}
		remP -= p
		if remP <= 1e-12 {
			k = rem // numerical leftover: nothing can follow this index
		}
		if k > 0 {
			fn(i, k)
		}
		rem -= k
	}
}

func (s *CohortStream) splitRungs(n int, fn func(rung, k int)) {
	if len(s.cc.RungShare) == 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	s.splitCounts(n, s.cc.RungShare, fn)
}

// --- bounded-Pareto duration model, shared with the cohort engines ---

// viewSurvival returns P(view duration > x seconds) for the capped
// bounded-Pareto duration min(Pareto(xmin, alpha), max).
func (c Config) viewSurvival(x float64) float64 {
	c = c.withDefaults()
	switch {
	case x < c.ViewMinSecs:
		return 1
	case x >= c.ViewMaxSecs:
		return 0
	default:
		return math.Pow(c.ViewMinSecs/x, c.ViewAlpha)
	}
}

// MeanViewSecs returns the expected view duration in seconds:
// E[min(Pareto(xmin, alpha), max)] in closed form.
func (c Config) MeanViewSecs() float64 {
	c = c.withDefaults()
	xmin, a, cap := c.ViewMinSecs, c.ViewAlpha, c.ViewMaxSecs
	if a == 1 {
		return xmin * (1 + math.Log(cap/xmin))
	}
	return xmin + math.Pow(xmin, a)*(math.Pow(xmin, 1-a)-math.Pow(cap, 1-a))/(a-1)
}

// PeakViewsFor returns the arrival rate (views/sec) whose steady-state
// concurrency at the diurnal peak is the target viewer count, by
// Little's law: L = λ · E[duration].
func (c Config) PeakViewsFor(viewers int) float64 {
	return float64(viewers) / c.MeanViewSecs()
}

// DurPoint is one quadrature point of the view-duration distribution.
type DurPoint struct {
	Secs   float64 // conditional mean duration within the band
	Weight float64 // probability mass of the band
}

// DurationQuadrature compresses the duration distribution into ~points
// log-spaced bands, each carrying its mass and conditional mean, plus
// the cap atom. The cohort engines evaluate per-duration QoE
// expectations (e.g. P(zero stalls) = Σ w·exp(-d·rate)) over these
// points instead of per viewer.
func (c Config) DurationQuadrature(points int) []DurPoint {
	c = c.withDefaults()
	if points < 2 {
		points = 2
	}
	xmin, a, cap := c.ViewMinSecs, c.ViewAlpha, c.ViewMaxSecs
	// E[D · 1{lo <= D < hi}] for the continuous part.
	bandMean := func(lo, hi float64) float64 {
		if a == 1 {
			return xmin * math.Log(hi/lo)
		}
		return a / (a - 1) * math.Pow(xmin, a) * (math.Pow(lo, 1-a) - math.Pow(hi, 1-a))
	}
	// Continuous (uncapped) survival: the cap's probability atom is added
	// separately, so bands must not absorb it.
	surv := func(x float64) float64 {
		if x <= xmin {
			return 1
		}
		return math.Pow(xmin/x, a)
	}
	ratio := math.Pow(cap/xmin, 1/float64(points))
	out := make([]DurPoint, 0, points+1)
	lo := xmin
	for i := 0; i < points; i++ {
		hi := lo * ratio
		if i == points-1 {
			hi = cap
		}
		wgt := surv(lo) - surv(hi)
		if wgt > 1e-15 {
			out = append(out, DurPoint{Secs: bandMean(lo, hi) / wgt, Weight: wgt})
		}
		lo = hi
	}
	if atom := math.Pow(xmin/cap, a); atom > 1e-15 {
		out = append(out, DurPoint{Secs: cap, Weight: atom})
	}
	return out
}

// departureOffsetPMF returns P(a view arriving uniformly within a bucket
// departs `j` buckets later), smearing the duration distribution by the
// uniform arrival jitter: pmf[j] = ∫₀¹ [S((j-u)·w) - S((j+1-u)·w)] du.
func departureOffsetPMF(c Config, bucket time.Duration) []float64 {
	c = c.withDefaults()
	w := bucket.Seconds()
	jmax := int(math.Ceil(c.ViewMaxSecs/w)) + 1
	pmf := make([]float64, jmax+1)
	const q = 16 // midpoint quadrature over the arrival jitter
	for j := 0; j <= jmax; j++ {
		acc := 0.0
		for k := 0; k < q; k++ {
			u := (float64(k) + 0.5) / q
			acc += c.viewSurvival((float64(j)-u)*w) - c.viewSurvival((float64(j)+1-u)*w)
		}
		pmf[j] = acc / q
	}
	return pmf
}

// poissonDraw draws a Poisson variate from rng (Knuth for small lambda,
// normal approximation for large) — shared by Generator.Views and the
// cohort stream.
func poissonDraw(rng *sim.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 50 {
		n := int(rng.Normal(lambda, math.Sqrt(lambda)) + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}
