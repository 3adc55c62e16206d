// Package geo builds the synthetic world that substitutes for Alibaba's
// global CDN footprint: node sites placed in countries, a propagation RTT
// model derived from great-circle distance, per-link baseline loss, and the
// diurnal load curve that drives the workload (Taobao Live peaks between
// 8 pm and 11 pm local time in the paper's Figure 10(b)).
package geo

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"time"

	"livenet/internal/sim"
)

// Country is one country in the synthetic world.
type Country struct {
	Name   string
	Region string  // continent-scale grouping
	Lat    float64 // population-centroid latitude
	Lon    float64 // population-centroid longitude
	// NodeWeight and ViewerWeight steer node placement and viewer origin.
	// The home market dominates both, matching Taobao Live's footprint.
	NodeWeight   float64
	ViewerWeight float64
}

// Countries is the default synthetic country set. The first entry is the
// home market where most broadcasters and viewers reside.
var Countries = []Country{
	{Name: "CN", Region: "APAC", Lat: 34.0, Lon: 108.0, NodeWeight: 50, ViewerWeight: 82},
	{Name: "SG", Region: "APAC", Lat: 1.35, Lon: 103.8, NodeWeight: 6, ViewerWeight: 3},
	{Name: "JP", Region: "APAC", Lat: 36.0, Lon: 138.0, NodeWeight: 6, ViewerWeight: 3},
	{Name: "KR", Region: "APAC", Lat: 37.5, Lon: 127.0, NodeWeight: 4, ViewerWeight: 2},
	{Name: "IN", Region: "APAC", Lat: 21.0, Lon: 78.0, NodeWeight: 5, ViewerWeight: 2},
	{Name: "ID", Region: "APAC", Lat: -6.2, Lon: 106.8, NodeWeight: 4, ViewerWeight: 2},
	{Name: "DE", Region: "EU", Lat: 51.0, Lon: 9.0, NodeWeight: 5, ViewerWeight: 1.5},
	{Name: "GB", Region: "EU", Lat: 52.0, Lon: -1.0, NodeWeight: 4, ViewerWeight: 1},
	{Name: "FR", Region: "EU", Lat: 47.0, Lon: 2.0, NodeWeight: 3, ViewerWeight: 0.5},
	{Name: "US", Region: "NA", Lat: 39.0, Lon: -98.0, NodeWeight: 8, ViewerWeight: 2},
	{Name: "BR", Region: "SA", Lat: -14.0, Lon: -51.0, NodeWeight: 3, ViewerWeight: 0.5},
	{Name: "AU", Region: "OC", Lat: -25.0, Lon: 134.0, NodeWeight: 2, ViewerWeight: 0.5},
}

// Site is one CDN node site (a cluster of machines in the paper).
type Site struct {
	ID      int
	Country string
	Region  string
	Lat     float64
	Lon     float64
	// IXP marks sites placed at well-peered exchange points; the Brain
	// reserves some of these as last-resort relays (§4.3).
	IXP bool
	// CapacityMbps is the site's egress capacity used by utilization
	// accounting.
	CapacityMbps float64
}

// Config parameterizes world construction.
type Config struct {
	NumSites int
	// IXPFraction of sites are flagged as IXP-attached (well-peered).
	IXPFraction float64
	// CityJitterKm randomizes site placement around the country centroid
	// so same-country sites are not co-located.
	CityJitterKm float64
	// CapacityMbps is the mean site capacity; individual sites vary ±50%.
	CapacityMbps float64
}

// DefaultConfig returns sensible defaults scaled down from the paper's
// 600+ sites.
func DefaultConfig() Config {
	return Config{
		NumSites:     64,
		IXPFraction:  0.08,
		CityJitterKm: 700,
		CapacityMbps: 8000,
	}
}

// World is the synthetic geography: sites plus distance-derived link
// metrics. Build tabulates every ordered pair's RTT and base loss, so the
// link queries are index loads. Worlds are immutable after construction
// and safe for concurrent readers.
type World struct {
	Sites []Site
	n     int
	// rtt[i*n+j] and loss[i*n+j] are RTT(i, j) and BaseLoss(i, j).
	rtt  []time.Duration
	loss []float64
	// cosLat[i] is the cosine of site i's latitude, the per-site factor of
	// NearestSite's haversine.
	cosLat []float64
	// peering[i] in [0,1] grades a site's interconnect quality. Paths
	// between two poorly peered sites pay a large transit penalty, so
	// relaying through a well-peered hub often beats the direct link —
	// the triangle-inequality violation that makes overlay relaying (and
	// the paper's dominant 2-hop paths) worthwhile.
	peering []float64
}

// Build constructs a world. Construction is deterministic for a given
// rng stream state.
func Build(cfg Config, rng *sim.Rand) *World {
	if cfg.NumSites <= 0 {
		panic("geo: NumSites must be positive")
	}
	w := &World{Sites: make([]Site, 0, cfg.NumSites)}

	totalWeight := 0.0
	for _, c := range Countries {
		totalWeight += c.NodeWeight
	}
	// Allocate sites per country by weight (largest remainder).
	type alloc struct {
		c     Country
		exact float64
		n     int
	}
	allocs := make([]alloc, len(Countries))
	assigned := 0
	for i, c := range Countries {
		exact := float64(cfg.NumSites) * c.NodeWeight / totalWeight
		n := int(exact)
		allocs[i] = alloc{c: c, exact: exact, n: n}
		assigned += n
	}
	for assigned < cfg.NumSites {
		best := 0
		bestFrac := -1.0
		for i, a := range allocs {
			frac := a.exact - float64(a.n)
			if frac > bestFrac {
				bestFrac = frac
				best = i
			}
		}
		allocs[best].n++
		assigned++
	}

	id := 0
	for _, a := range allocs {
		for k := 0; k < a.n; k++ {
			jitterLat := rng.Normal(0, cfg.CityJitterKm/111) // ~111 km/deg
			jitterLon := rng.Normal(0, cfg.CityJitterKm/111)
			cap := cfg.CapacityMbps * (0.5 + rng.Float64())
			w.Sites = append(w.Sites, Site{
				ID:           id,
				Country:      a.c.Name,
				Region:       a.c.Region,
				Lat:          clampLat(a.c.Lat + jitterLat),
				Lon:          wrapLon(a.c.Lon + jitterLon),
				IXP:          rng.Bernoulli(cfg.IXPFraction),
				CapacityMbps: cap,
			})
			id++
		}
	}
	// Guarantee at least two IXP sites so last-resort paths always exist.
	ixps := 0
	for _, s := range w.Sites {
		if s.IXP {
			ixps++
		}
	}
	for i := 0; ixps < 2 && i < len(w.Sites); i++ {
		if !w.Sites[i].IXP {
			w.Sites[i].IXP = true
			ixps++
		}
	}

	n := len(w.Sites)
	w.peering = make([]float64, n)
	for i, s := range w.Sites {
		if s.IXP {
			w.peering[i] = 0.85 + rng.Float64()*0.15
		} else {
			w.peering[i] = rng.Float64() * 0.6
		}
	}
	// inflation[i*n+j] is the per-pair path-stretch factor applied to the
	// great-circle RTT (routing detours, queuing headroom).
	inflation := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if j < i {
				inflation[i*n+j] = inflation[j*n+i]
				continue
			}
			// Paths inside one country are better engineered than
			// international transit. Inflation covers routing detours and
			// inter-ISP peering indirection: production CDN paths (e.g.
			// cross-ISP routes in the paper's home market) run far above
			// fiber propagation, which is what makes the paper's per-hop
			// delays tens of ms even intra-country.
			base := 2.0
			if w.Sites[i].Country != w.Sites[j].Country {
				base = 2.3
			}
			inflation[i*n+j] = base + rng.Float64()*0.7
		}
	}

	w.n = n
	w.rtt = make([]time.Duration, n*n)
	w.loss = make([]float64, n*n)
	w.cosLat = make([]float64, n)
	for i, s := range w.Sites {
		w.cosLat[i] = math.Cos(s.Lat * degToRad)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.rtt[i*n+j] = w.linkRTT(i, j, inflation[i*n+j])
			w.loss[i*n+j] = w.linkLoss(i, j)
		}
	}
	return w
}

func clampLat(l float64) float64 { return math.Max(-85, math.Min(85, l)) }

func wrapLon(l float64) float64 {
	for l > 180 {
		l -= 360
	}
	for l < -180 {
		l += 360
	}
	return l
}

const degToRad = math.Pi / 180

// haversineKm returns the great-circle distance in km.
func haversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	return haversineCosKm(lat1, lon1, math.Cos(lat1*degToRad), lat2, lon2, math.Cos(lat2*degToRad))
}

// haversineCosKm is haversineKm with each point's cosine of latitude
// supplied by the caller.
func haversineCosKm(lat1, lon1, cosLat1, lat2, lon2, cosLat2 float64) float64 {
	const earthRadiusKm = 6371
	dLat := (lat2 - lat1) * degToRad
	dLon := (lon2 - lon1) * degToRad
	sLat, sLon := math.Sin(dLat/2), math.Sin(dLon/2)
	a := sLat*sLat + cosLat1*cosLat2*sLon*sLon
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(a)))
}

// fiber propagation: light travels ~200 km per ms in fiber, and RTT is
// there-and-back.
const kmPerMsOneWay = 200.0

// RTT returns the baseline RTT between two sites (no queuing).
func (w *World) RTT(i, j int) time.Duration { return w.rtt[i*w.n+j] }

// linkRTT is the RTT model Build tabulates: distance-derived propagation
// times the pair's path-stretch inflation, plus a deterministic per-pair
// transit penalty modeling ISP interconnect and access aggregation.
func (w *World) linkRTT(i, j int, inflation float64) time.Duration {
	if i == j {
		return 500 * time.Microsecond // intra-cluster
	}
	si, sj := w.Sites[i], w.Sites[j]
	dist := haversineKm(si.Lat, si.Lon, sj.Lat, sj.Lon)
	oneWayMs := dist / kmPerMsOneWay * inflation
	rtt := time.Duration(2 * oneWayMs * float64(time.Millisecond))
	rtt += w.transitPenalty(i, j)
	const floor = 4 * time.Millisecond // same-metro floor
	if rtt < floor {
		rtt = floor
	}
	return rtt
}

// transitPenalty models ISP interconnect indirection: links between two
// poorly peered sites pay heavily (cross-ISP detours), links touching a
// well-peered hub are cheap. A small deterministic per-pair jitter keeps
// pairs distinct.
func (w *World) transitPenalty(i, j int) time.Duration {
	qi, qj := w.peering[i], w.peering[j]
	ms := 14 + 170*(1-qi)*(1-qj)
	if w.Sites[i].Country != w.Sites[j].Country {
		// International transit is punishing unless both ends sit at
		// well-peered exchange points (submarine-cable landing hubs), so
		// cross-border traffic prefers edge→hub→hub→edge chains.
		ms *= 1 + 1.3*(1-qi*qj)
	}
	ms += float64(pairHash("transit:", i, j) % 12)
	return time.Duration(ms * float64(time.Millisecond))
}

// pairHash is the FNV-64a hash of prefix + "lo-hi" for the unordered pair
// {i, j}, written in decimal.
func pairHash(prefix string, i, j int) uint64 {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	b = strconv.AppendInt(b, int64(min(i, j)), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(max(i, j)), 10)
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Peering exposes a site's interconnect grade.
func (w *World) Peering(i int) float64 { return w.peering[i] }

// BaseLoss returns the quiet-hour packet loss rate of the i→j link. The
// paper's backbone is nearly lossless (< 0.175% even at peak; Figure 13);
// the diurnal component is added by the emulator on top of this base.
func (w *World) BaseLoss(i, j int) float64 { return w.loss[i*w.n+j] }

// linkLoss is the base-loss model Build tabulates.
func (w *World) linkLoss(i, j int) float64 {
	base := 0.0004 // 0.04%
	if w.Sites[i].Country != w.Sites[j].Country {
		base = 0.0008
	}
	// Deterministic per-pair variation so links differ but rebuilds agree.
	frac := float64(pairHash("", i, j)%1000) / 1000
	return base * (0.5 + frac)
}

// LocalHour returns the local hour-of-day [0,24) at longitude lon for the
// given simulation time (time 0 is UTC midnight).
func LocalHour(t time.Duration, lon float64) float64 {
	utcHours := t.Hours()
	local := math.Mod(utcHours+lon/15, 24)
	if local < 0 {
		local += 24
	}
	return local
}

// DiurnalFactor returns the load multiplier in (0,1] for the given local
// hour: a trough around 4–5 am and a peak between 20:00 and 23:00,
// matching the shape in Figures 10(b), 10(c) and 13.
func DiurnalFactor(localHour float64) float64 {
	// Two-Gaussian bump: a broad daytime shoulder plus a sharp evening peak.
	evening := math.Exp(-sq(angularHourDist(localHour, 21)) / (2 * sq(2.4)))
	daytime := math.Exp(-sq(angularHourDist(localHour, 14)) / (2 * sq(4.5)))
	f := 0.18 + 0.62*evening + 0.35*daytime
	if f > 1 {
		f = 1
	}
	return f
}

func sq(x float64) float64 { return x * x }

// angularHourDist returns the circular distance between two hours-of-day.
func angularHourDist(a, b float64) float64 {
	d := math.Abs(a - b)
	if d > 12 {
		d = 24 - d
	}
	return d
}

// SitesInCountry returns the IDs of sites in the given country.
func (w *World) SitesInCountry(country string) []int {
	var out []int
	for _, s := range w.Sites {
		if s.Country == country {
			out = append(out, s.ID)
		}
	}
	return out
}

// IXPSites returns the IDs of IXP-attached sites.
func (w *World) IXPSites() []int {
	var out []int
	for _, s := range w.Sites {
		if s.IXP {
			out = append(out, s.ID)
		}
	}
	return out
}

// NearestPeers returns the m other sites nearest to id by RTT, in
// ascending RTT order with ties broken by lower site ID (deterministic).
// m at or above the peer count returns every other site. Callers building
// a sparse overlay typically union the result with IXPSites so last-resort
// detours stay reachable.
func (w *World) NearestPeers(id, m int) []int {
	n := len(w.Sites)
	if m <= 0 || n <= 1 {
		return nil
	}
	ids := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j != id {
			ids = append(ids, j)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		ra, rb := w.RTT(id, ids[a]), w.RTT(id, ids[b])
		if ra != rb {
			return ra < rb
		}
		return ids[a] < ids[b]
	})
	if m < len(ids) {
		ids = ids[:m:m]
	}
	return ids
}

// Regions returns the sorted distinct region names of the world's sites.
func (w *World) Regions() []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range w.Sites {
		if !seen[s.Region] {
			seen[s.Region] = true
			out = append(out, s.Region)
		}
	}
	sort.Strings(out)
	return out
}

// RegionGateways returns, per region, the sites cross-region traffic
// should stitch through: the region's IXP-attached sites, ordered by
// descending peering grade (ties by lower ID). A region with no IXP —
// Build concentrates IXPs in the home market — still gets one gateway,
// its best-peered site, so every region pair has stitch candidates.
func (w *World) RegionGateways() map[string][]int {
	out := make(map[string][]int)
	for _, s := range w.Sites {
		if s.IXP {
			out[s.Region] = append(out[s.Region], s.ID)
		}
	}
	for _, region := range w.Regions() {
		if len(out[region]) == 0 {
			best, bestQ := -1, -1.0
			for _, s := range w.Sites {
				if s.Region == region && w.peering[s.ID] > bestQ {
					best, bestQ = s.ID, w.peering[s.ID]
				}
			}
			out[region] = []int{best}
			continue
		}
		g := out[region]
		sort.Slice(g, func(a, b int) bool {
			if w.peering[g[a]] != w.peering[g[b]] {
				return w.peering[g[a]] > w.peering[g[b]]
			}
			return g[a] < g[b]
		})
	}
	return out
}

// NearestSite returns the site closest to the given coordinates; used by
// the DNS-redirection substitute that maps clients to edge nodes. Ties go
// to the lower site ID, so a site's own coordinates resolve to that site.
func (w *World) NearestSite(lat, lon float64) int {
	cosLat := math.Cos(lat * degToRad)
	best, bestD := 0, math.Inf(1)
	for id, s := range w.Sites {
		d := haversineCosKm(lat, lon, cosLat, s.Lat, s.Lon, w.cosLat[id])
		if d < bestD {
			bestD = d
			best = s.ID
		}
	}
	return best
}

// ViewerOrigin draws a viewer location: a country chosen by ViewerWeight,
// with metro-scale jitter around the centroid.
func ViewerOrigin(rng *sim.Rand) (lat, lon float64, country string) {
	total := 0.0
	for _, c := range Countries {
		total += c.ViewerWeight
	}
	u := rng.Float64() * total
	for _, c := range Countries {
		if u < c.ViewerWeight {
			return clampLat(c.Lat + rng.Normal(0, 3)), wrapLon(c.Lon + rng.Normal(0, 3)), c.Name
		}
		u -= c.ViewerWeight
	}
	c := Countries[len(Countries)-1]
	return c.Lat, c.Lon, c.Name
}
