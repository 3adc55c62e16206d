package geo

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"livenet/internal/sim"
)

// refLinks evaluates the link model in closed form on every call, with
// Build's draws replayed from a fresh stream of its seed and fmt-fed pair
// hashes: the reference the tabulated World must equal bit for bit.
type refLinks struct {
	sites     []Site
	peering   []float64
	inflation []float64
}

// replayLinks re-draws Build's random sequence for w's sites: per site two
// placement normals, a capacity and an IXP draw; then the peering grades;
// then one inflation draw per unordered pair.
func replayLinks(t *testing.T, cfg Config, seed int64, w *World) *refLinks {
	t.Helper()
	rng := sim.NewSource(seed).Stream("geo")
	for range w.Sites {
		rng.Normal(0, cfg.CityJitterKm/111)
		rng.Normal(0, cfg.CityJitterKm/111)
		rng.Float64()
		rng.Bernoulli(cfg.IXPFraction)
	}
	n := len(w.Sites)
	r := &refLinks{sites: w.Sites, peering: make([]float64, n), inflation: make([]float64, n*n)}
	for i, s := range w.Sites {
		if s.IXP {
			r.peering[i] = 0.85 + rng.Float64()*0.15
		} else {
			r.peering[i] = rng.Float64() * 0.6
		}
		if r.peering[i] != w.Peering(i) {
			t.Fatalf("seed %d n=%d: site %d peering %v, replay %v", seed, n, i, w.Peering(i), r.peering[i])
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if j < i {
				r.inflation[i*n+j] = r.inflation[j*n+i]
				continue
			}
			base := 2.0
			if w.Sites[i].Country != w.Sites[j].Country {
				base = 2.3
			}
			r.inflation[i*n+j] = base + rng.Float64()*0.7
		}
	}
	return r
}

func (w *refLinks) RTT(i, j int) time.Duration {
	if i == j {
		return 500 * time.Microsecond // intra-cluster
	}
	si, sj := w.sites[i], w.sites[j]
	dist := refHaversineKm(si.Lat, si.Lon, sj.Lat, sj.Lon)
	oneWayMs := dist / kmPerMsOneWay * w.inflation[i*len(w.sites)+j]
	rtt := time.Duration(2 * oneWayMs * float64(time.Millisecond))
	rtt += w.transitPenalty(i, j)
	const floor = 4 * time.Millisecond // same-metro floor
	if rtt < floor {
		rtt = floor
	}
	return rtt
}

func (w *refLinks) transitPenalty(i, j int) time.Duration {
	qi, qj := w.peering[i], w.peering[j]
	ms := 14 + 170*(1-qi)*(1-qj)
	if w.sites[i].Country != w.sites[j].Country {
		ms *= 1 + 1.3*(1-qi*qj)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "transit:%d-%d", min(i, j), max(i, j))
	ms += float64(h.Sum64() % 12)
	return time.Duration(ms * float64(time.Millisecond))
}

func (w *refLinks) BaseLoss(i, j int) float64 {
	si, sj := w.sites[i], w.sites[j]
	base := 0.0004 // 0.04%
	if si.Country != sj.Country {
		base = 0.0008
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d-%d", min(i, j), max(i, j))
	frac := float64(h.Sum64()%1000) / 1000
	return base * (0.5 + frac)
}

func refHaversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// tableSizes are the fleet sizes the macro engine, the packet-level
// cluster and the paper-scale benchmarks build.
var tableSizes = []int{12, 32, 48, 64, 600}

// TestLinkTableMatchesClosedForm: every ordered pair's tabulated RTT and
// base loss equals the closed-form model bit for bit, so the table changes
// no replay.
func TestLinkTableMatchesClosedForm(t *testing.T) {
	for _, n := range tableSizes {
		seeds := []int64{1, 7, 42}
		if n > 64 {
			seeds = []int64{7}
		}
		for _, seed := range seeds {
			cfg := DefaultConfig()
			cfg.NumSites = n
			w := Build(cfg, sim.NewSource(seed).Stream("geo"))
			ref := replayLinks(t, cfg, seed, w)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if got, want := w.RTT(i, j), ref.RTT(i, j); got != want {
						t.Fatalf("seed %d n=%d: RTT(%d,%d) = %v, closed form %v", seed, n, i, j, got, want)
					}
					if got, want := w.BaseLoss(i, j), ref.BaseLoss(i, j); got != want {
						t.Fatalf("seed %d n=%d: BaseLoss(%d,%d) = %v, closed form %v", seed, n, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestNearestSiteOfASiteIsItself: a site's own coordinates resolve to that
// site. The cohort engine relies on it to hand a viewer's edge to the
// LiveNet handler instead of resolving it again.
func TestNearestSiteOfASiteIsItself(t *testing.T) {
	for _, n := range tableSizes {
		seeds := 300
		if n > 64 {
			seeds = 10 // a 600-site Build tabulates 360k pairs
		}
		for seed := int64(0); seed < int64(seeds); seed++ {
			cfg := DefaultConfig()
			cfg.NumSites = n
			w := Build(cfg, sim.NewSource(seed).Stream("geo"))
			for _, s := range w.Sites {
				if got := w.NearestSite(s.Lat, s.Lon); got != s.ID {
					t.Fatalf("seed %d n=%d: NearestSite of site %d's coordinates is %d", seed, n, s.ID, got)
				}
			}
		}
	}
}
