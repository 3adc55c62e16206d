package brain

import (
	"fmt"
	"testing"
	"time"

	"livenet/internal/runner"
	"livenet/internal/sim"
)

// pathsEqual compares two served candidate lists deeply.
func pathsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// comparePairs asserts both brains serve identical paths for every pair.
func comparePairs(t *testing.T, tag string, n int, x, y *Brain) {
	t.Helper()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if px, py := x.LookupByProducer(s, d), y.LookupByProducer(s, d); !pathsEqual(px, py) {
				t.Fatalf("%s: pair (%d,%d) diverged:\n  %v\nvs\n  %v", tag, s, d, px, py)
			}
		}
	}
}

// topology is one of the two views the pins below run on: the Brain
// picks its routing engine from the view, so "mesh" (every link
// reported) exercises the dense enumerator and "sparse" (a tenth of the
// links never reported) arena Yen — the engine paper-scale overlays use.
type topology struct {
	name  string
	skip  func(i, j int) bool
	dense bool
}

var topologies = []topology{
	{name: "mesh", skip: func(i, j int) bool { return false }, dense: true},
	{name: "sparse", skip: func(i, j int) bool { return (i*7+j*3)%11 == 0 }},
}

// forEachEngine runs fn once per topology; check asserts a built Brain
// selected the engine the topology stands for.
func forEachEngine(t *testing.T, fn func(t *testing.T, topo topology, check func(*Brain))) {
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			fn(t, topo, func(b *Brain) {
				t.Helper()
				if b.DenseRouting() != topo.dense {
					t.Fatalf("%s view: DenseRouting() = %v", topo.name, !topo.dense)
				}
			})
		})
	}
}

// TestIncrementalMatchesRecompute is the correctness property behind
// incremental epochs: across randomized sequences of link-weight changes,
// link/node failures, revivals, and overload alarms, the brain that keeps
// provably-unaffected PIB entries serves exactly the paths of a control
// brain whose cache is dropped from scratch every round.
func TestIncrementalMatchesRecompute(t *testing.T) {
	forEachEngine(t, testIncrementalMatchesRecompute)
}

func testIncrementalMatchesRecompute(t *testing.T, topo topology, check func(*Brain)) {
	const n = 18
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := sim.NewSource(seed).Stream("prop")
			inc := New(Config{N: n})
			ref := New(Config{N: n})
			both := func(f func(b *Brain)) { f(inc); f(ref) }

			// Identical random metrics (continuous weights: ties have
			// measure zero, so equal-cost ambiguity cannot occur).
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j || topo.skip(i, j) {
						continue
					}
					rtt := time.Duration(3000+rng.Intn(120000)) * time.Microsecond
					loss := rng.Float64() * 0.01
					util := rng.Float64() * 0.6
					both(func(b *Brain) { b.ReportLink(i, j, rtt, loss, util) })
				}
			}
			both(check)
			both(func(b *Brain) { b.AdvanceEpoch() })
			comparePairs(t, "warmup", n, inc, ref)

			for round := 0; round < 8; round++ {
				for m, muts := 0, 1+rng.Intn(6); m < muts; m++ {
					i := rng.Intn(n)
					j := rng.Intn(n - 1)
					if j >= i {
						j++
					}
					if topo.skip(i, j) {
						continue // an unreported link stays unreported
					}
					switch rng.Intn(6) {
					case 0, 1, 2: // routine metric drift
						rtt := time.Duration(3000+rng.Intn(120000)) * time.Microsecond
						loss := rng.Float64() * 0.01
						util := rng.Float64() * 0.6
						both(func(b *Brain) { b.ReportLink(i, j, rtt, loss, util) })
					case 3: // probe timeout: immediate link failure
						both(func(b *Brain) { b.ReportLinkDown(i, j) })
					case 4: // node failure or revival via a load report
						if rng.Bernoulli(0.5) {
							both(func(b *Brain) { b.ReportNodeDown(i) })
						} else {
							util := rng.Float64() * 0.5
							both(func(b *Brain) { b.ReportNodeLoad(i, util) })
						}
					case 5: // real-time overload alarm
						util := 0.82 + rng.Float64()*0.15
						both(func(b *Brain) { b.OverloadAlarm(i, util) })
					}
				}
				// Incremental routing round vs from-scratch control.
				inc.AdvanceEpoch()
				ref.InvalidateAll()
				comparePairs(t, fmt.Sprintf("round %d", round), n, inc, ref)
			}
		})
	}
}

// deterministicMesh reports the same metrics into a brain, for every
// link the topology has.
func deterministicMesh(b *Brain, n int, seed int64, topo topology) {
	rng := sim.NewSource(seed).Stream("mesh")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				rtt := time.Duration(2000+rng.Intn(90000)) * time.Microsecond
				loss, util := rng.Float64()*0.005, rng.Float64()*0.5
				if !topo.skip(i, j) {
					b.ReportLink(i, j, rtt, loss, util)
				}
			}
		}
	}
}

// TestRecomputeParallelMatchesSerial pins the determinism of the batch
// recompute fan-out: the parallel schedule must produce byte-identical
// PIB contents and served paths to runner.Serial(), across a cold
// RecomputeAll, a PrefetchPaths fill, and a churned incremental round.
func TestRecomputeParallelMatchesSerial(t *testing.T) {
	forEachEngine(t, testRecomputeParallelMatchesSerial)
}

func testRecomputeParallelMatchesSerial(t *testing.T, topo topology, check func(*Brain)) {
	const n = 24
	par := New(Config{N: n}) // zero Options: parallel
	ser := New(Config{N: n, Recompute: runner.Serial()})
	for _, b := range []*Brain{par, ser} {
		deterministicMesh(b, n, 11, topo)
		check(b)
		b.RegisterStream(5, 3)
	}

	par.RecomputeAll()
	ser.RecomputeAll()
	pk, sk := par.SortedPIBKeys(), ser.SortedPIBKeys()
	if len(pk) != n*(n-1) || len(pk) != len(sk) {
		t.Fatalf("PIB sizes: parallel %d, serial %d, want %d", len(pk), len(sk), n*(n-1))
	}
	comparePairs(t, "recompute-all", n, par, ser)

	pm, err1 := par.PrefetchPaths(5)
	sm, err2 := ser.PrefetchPaths(5)
	if err1 != nil || err2 != nil {
		t.Fatalf("prefetch: %v / %v", err1, err2)
	}
	if len(pm) != len(sm) {
		t.Fatalf("prefetch sizes differ: %d vs %d", len(pm), len(sm))
	}
	for d := range pm {
		if !pathsEqual(pm[d], sm[d]) {
			t.Fatalf("prefetch dst %d diverged", d)
		}
	}

	// Churn a subset of links and run the incremental round on both.
	rng := sim.NewSource(12).Stream("churn")
	for k := 0; k < 10; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		rtt := time.Duration(2000+rng.Intn(90000)) * time.Microsecond
		if topo.skip(i, j) {
			continue
		}
		for _, b := range []*Brain{par, ser} {
			b.ReportLink(i, j, rtt, 0.001, 0.2)
		}
	}
	par.AdvanceEpoch()
	ser.AdvanceEpoch()
	par.RecomputeAll()
	ser.RecomputeAll()
	comparePairs(t, "churned", n, par, ser)
}

// TestReportOrderIndependence is the map-iteration determinism
// regression: the Brain's served paths are a function of the reported
// state, not of the order reports arrived in (Global Discovery reports
// race in production; the sweep and invalidation walks iterate Go maps).
func TestReportOrderIndependence(t *testing.T) {
	forEachEngine(t, testReportOrderIndependence)
}

func testReportOrderIndependence(t *testing.T, topo topology, check func(*Brain)) {
	const n = 16
	type rep struct {
		i, j       int
		rtt        time.Duration
		loss, util float64
	}
	var reports []rep
	rng := sim.NewSource(21).Stream("order")
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !topo.skip(i, j) {
				reports = append(reports, rep{
					i: i, j: j,
					rtt:  time.Duration(2000+rng.Intn(90000)) * time.Microsecond,
					loss: rng.Float64() * 0.005,
					util: rng.Float64() * 0.5,
				})
			}
		}
	}
	fwd := New(Config{N: n})
	rev := New(Config{N: n})
	for _, r := range reports {
		fwd.ReportLink(r.i, r.j, r.rtt, r.loss, r.util)
	}
	for k := len(reports) - 1; k >= 0; k-- {
		r := reports[k]
		rev.ReportLink(r.i, r.j, r.rtt, r.loss, r.util)
	}
	check(fwd)
	check(rev)
	fwd.AdvanceEpoch()
	rev.AdvanceEpoch()
	comparePairs(t, "initial", n, fwd, rev)
	a, b := fwd.SortedPIBKeys(), rev.SortedPIBKeys()
	if len(a) != len(b) {
		t.Fatalf("PIB sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("PIB key %d differs: %v vs %v", i, a[i], b[i])
		}
	}

	// Churn round applied in opposite orders, with a failure in the mix.
	churn := reports[:40]
	fwd.ReportLinkDown(1, 2)
	rev.ReportLinkDown(1, 2)
	for _, r := range churn {
		fwd.ReportLink(r.i, r.j, r.rtt+3*time.Millisecond, r.loss, r.util)
	}
	for k := len(churn) - 1; k >= 0; k-- {
		r := churn[k]
		rev.ReportLink(r.i, r.j, r.rtt+3*time.Millisecond, r.loss, r.util)
	}
	fwd.AdvanceEpoch()
	rev.AdvanceEpoch()
	comparePairs(t, "churned", n, fwd, rev)
}

// TestIncrementalWorkReduction asserts the structural win: a routing
// round where ~1% of links drifted drops only the affected sliver of the
// PIB, and the refill recomputes exactly the dropped entries.
func TestIncrementalWorkReduction(t *testing.T) {
	forEachEngine(t, testIncrementalWorkReduction)
}

func testIncrementalWorkReduction(t *testing.T, topo topology, check func(*Brain)) {
	const n = 32
	b := New(Config{N: n})
	deterministicMesh(b, n, 31, topo)
	check(b)
	b.AdvanceEpoch()
	b.RecomputeAll()
	pairs := uint64(n * (n - 1))
	base := b.tel.pibMisses.Load()
	if base != pairs {
		t.Fatalf("cold recompute misses = %d, want %d", base, pairs)
	}

	// Drift 10 links (~1% of the 992 directed links) upward.
	rng := sim.NewSource(32).Stream("drift")
	for k := 0; k < 10; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		if topo.skip(i, j) {
			continue
		}
		l := b.View().Link(i, j)
		b.ReportLink(i, j, l.RTT+2*time.Millisecond, l.Loss, l.Util)
	}
	b.AdvanceEpoch()
	if got := b.tel.invalidateIncremental.Load(); got != 1 {
		t.Fatalf("incremental rounds = %d, want 1 (full fallback taken?)", got)
	}
	dropped := b.tel.pibInvalidated.Load()
	b.RecomputeAll()
	refilled := b.tel.pibMisses.Load() - base
	if refilled != dropped {
		t.Fatalf("refilled %d entries, but the round dropped %d", refilled, dropped)
	}
	// On a dense mesh popular low-RTT edges sit on many cached paths, so
	// the drop is bigger than the paper-scale sparse-overlay ratio (the
	// benchmarks record that one); here we pin that it stays a strict
	// minority of the PIB instead of the full-invalidation fallback.
	if refilled*2 > pairs {
		t.Fatalf("1%% link drift invalidated %d of %d entries — incremental round did no real work reduction", refilled, pairs)
	}

	// A quiet advance afterwards must be a free no-op.
	before := b.tel.pibInvalidated.Load()
	b.AdvanceEpoch()
	if got := b.tel.pibInvalidated.Load(); got != before {
		t.Fatalf("quiet epoch invalidated %d entries", got-before)
	}
}
