package main

import (
	"sort"
	"time"

	"livenet/internal/geo"
	"livenet/internal/sim"
)

// Paper-scale fleet shape, as internal/perfbench builds it: N sites on a
// sparse overlay of each site's nearest peers plus every IXP site.
const (
	fleetN      = 600
	fleetDegree = 16
)

// fleet is a seeded sparse overlay with per-link Global Discovery values.
type fleet struct {
	n     int
	world *geo.World
	ixps  []int
	links [][2]int // directed, sorted (from, to)
	loss  []float64
	util  []float64
	adj   []bool // adj[a*n+b]: a→b is a reported link
}

func newFleet(seed int64, n int) *fleet {
	src := sim.NewSource(seed)
	gcfg := geo.DefaultConfig()
	gcfg.NumSites = n
	w := geo.Build(gcfg, src.Stream("geo"))
	f := &fleet{n: n, world: w, ixps: w.IXPSites(), adj: make([]bool, n*n)}
	add := func(i, j int) {
		if i != j {
			f.adj[i*n+j], f.adj[j*n+i] = true, true
		}
	}
	for i := 0; i < n; i++ {
		for _, j := range w.NearestPeers(i, fleetDegree) {
			add(i, j)
		}
		for _, x := range f.ixps {
			add(i, x)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if f.adj[i*n+j] {
				f.links = append(f.links, [2]int{i, j})
			}
		}
	}
	sort.Slice(f.links, func(a, b int) bool {
		if f.links[a][0] != f.links[b][0] {
			return f.links[a][0] < f.links[b][0]
		}
		return f.links[a][1] < f.links[b][1]
	})
	rng := src.Stream("load")
	for range f.links {
		f.loss = append(f.loss, 0.0003+rng.Float64()*0.001)
		f.util = append(f.util, rng.Float64()*0.5)
	}
	return f
}

// linkReporter is the Global Discovery ingest both Brain flavours share.
type linkReporter interface {
	ReportLink(from, to int, rtt time.Duration, loss, util float64)
}

// reportAll feeds every link's measurement to a Brain.
func (f *fleet) reportAll(b linkReporter) {
	for i, l := range f.links {
		b.ReportLink(l[0], l[1], f.world.RTT(l[0], l[1]), f.loss[i], f.util[i])
	}
}

// validPath checks one returned path: from the producer to the consumer,
// loop-free, over reported links only.
func (f *fleet) validPath(p []int, producer, consumer int) bool {
	if len(p) == 0 || p[0] != producer || p[len(p)-1] != consumer {
		return false
	}
	for i, a := range p {
		if a < 0 || a >= f.n {
			return false
		}
		for _, b := range p[:i] {
			if a == b {
				return false
			}
		}
		if i > 0 && !f.adj[p[i-1]*f.n+a] {
			return false
		}
	}
	return true
}
