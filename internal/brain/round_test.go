package brain

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livenet/internal/runner"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
)

// The step-level tests drive a routing round through AdvanceEpoch and use
// planHook — called between freeze and plan, the serving lock released —
// to put something in between, which on a real clock only a race could.

// stepBrain is a sparse (arena-Yen) Brain with every pair in the PIB.
func stepBrain(t *testing.T, cfg Config) *Brain {
	t.Helper()
	b := New(cfg)
	deterministicMesh(b, cfg.N, 41, topologies[1])
	b.AdvanceEpoch()
	b.RecomputeAll()
	return b
}

func entryOf(b *Brain, k pairKey) *pibEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pib[k]
}

func (e *pibEntry) uses(l pairKey) bool {
	for _, p := range e.raw {
		for i := 0; i+1 < len(p.Nodes); i++ {
			if (pairKey{p.Nodes[i], p.Nodes[i+1]}) == l {
				return true
			}
		}
	}
	return false
}

// slower re-reports a link with 50 ms more RTT: entries routed over it are
// stale, and no other entry can be (a path through it only got dearer).
func slower(b *Brain, l pairKey) {
	cur := b.View().Link(l.src, l.dst)
	b.ReportLink(l.src, l.dst, cur.RTT+50*time.Millisecond, cur.Loss, cur.Util)
}

func TestRoundStepsInterleaved(t *testing.T) {
	const n = 16
	reg := telemetry.NewRegistry()
	b := stepBrain(t, Config{N: n, Telemetry: reg})
	defer b.Close()

	// k1 is routed over l1; k2 avoids l1 and is routed over l2.
	k1 := pairKey{0, 9}
	e1 := entryOf(b, k1)
	l1 := pairKey{e1.raw[0].Nodes[0], e1.raw[0].Nodes[1]}
	var k2, l2 pairKey
	var e2 *pibEntry
	for s := 1; s < n && e2 == nil; s++ {
		for d := 0; d < n && e2 == nil; d++ {
			if e := entryOf(b, pairKey{s, d}); e != nil && !e.uses(l1) && len(e.raw) > 0 {
				if l := (pairKey{e.raw[0].Nodes[0], e.raw[0].Nodes[1]}); !e1.uses(l) {
					k2, e2, l2 = pairKey{s, d}, e, l
				}
			}
		}
	}
	if e2 == nil {
		t.Fatal("no PIB entry avoids the first dirty link")
	}

	snap := reg.Snapshot()
	roundsBefore := snap.Histograms["brain.epoch_us"].Count
	slower(b, l1)
	var fresh1 *pibEntry
	hooks := 0
	b.planHook = func() {
		hooks++
		// The plan step is entered with the serving lock released.
		if !b.mu.TryLock() {
			t.Error("serving lock held between freeze and plan")
			return
		}
		// k1 is dropped and recomputed since the freeze: the new entry saw
		// l1's change, and the round must leave it alone.
		delete(b.pib, k1)
		b.mu.Unlock()
		b.LookupByProducer(k1.src, k1.dst)
		fresh1 = entryOf(b, k1)
		// A report that lands now belongs to the next round.
		slower(b, l2)
	}
	before := b.tel.pibInvalidated.Load()
	b.AdvanceEpoch()
	b.planHook = nil
	if hooks != 1 {
		t.Fatalf("the round planned %d times, want 1", hooks)
	}
	if fresh1 == nil || fresh1 == e1 {
		t.Fatal("the hook did not recompute k1")
	}
	if got := entryOf(b, k1); got != fresh1 {
		t.Fatalf("the entry computed between freeze and apply did not survive the round (have %p, want %p)", got, fresh1)
	}
	if got := entryOf(b, k2); got != e2 {
		t.Fatal("the round judged an entry on a report that landed after its freeze")
	}
	// The stale entries other than k1 (already gone) were dropped.
	b.mu.Lock()
	for k, e := range b.pib {
		if e != fresh1 && e.uses(l1) {
			t.Errorf("entry %v still routes over the re-reported link %v", k, l1)
		}
	}
	pendingDirt := len(b.dirtyLinks)
	b.mu.Unlock()
	if b.tel.pibInvalidated.Load() == before {
		t.Fatal("the round dropped nothing")
	}
	if pendingDirt != 1 {
		t.Fatalf("%d dirty links wait for the next round, want the 1 reported during the plan", pendingDirt)
	}
	b.AdvanceEpoch()
	if entryOf(b, k2) != nil {
		t.Fatal("the next round did not judge the report that landed during the previous plan")
	}

	// brain.epoch_us / brain.epoch_locked_us: one observation per round
	// that had dirt, the locked part no longer than the whole.
	snap = reg.Snapshot()
	whole, locked := snap.Histograms["brain.epoch_us"], snap.Histograms["brain.epoch_locked_us"]
	if whole.Count != roundsBefore+2 || locked.Count != whole.Count {
		t.Fatalf("epoch histograms hold %d / %d observations, want %d in both", whole.Count, locked.Count, roundsBefore+2)
	}
	if locked.Sum > whole.Sum {
		t.Fatalf("locked %d µs exceeds the rounds' wall time %d µs", locked.Sum, whole.Sum)
	}
	b.AdvanceEpoch() // no dirt: not a round
	if got := reg.Snapshot().Histograms["brain.epoch_us"].Count; got != roundsBefore+2 {
		t.Fatalf("a quiet AdvanceEpoch was recorded as a round (%d observations)", got)
	}
}

func TestRoundFullDropInBetweenMakesApplyANoOp(t *testing.T) {
	const n = 16
	b := stepBrain(t, Config{N: n})
	defer b.Close()
	e := entryOf(b, pairKey{0, 9})
	slower(b, pairKey{e.raw[0].Nodes[0], e.raw[0].Nodes[1]})
	var afterDrop uint64
	b.planHook = func() {
		b.InvalidateAll()
		b.LookupByProducer(0, 9)
		b.LookupByProducer(3, 4)
		afterDrop = b.tel.pibInvalidated.Load()
	}
	b.AdvanceEpoch()
	if got := b.tel.pibInvalidated.Load(); got != afterDrop {
		t.Fatalf("apply dropped %d entries of a PIB that was emptied and refilled since the freeze", got-afterDrop)
	}
	if keys := b.SortedPIBKeys(); len(keys) != 2 {
		t.Fatalf("PIB holds %d entries after the round, want the 2 computed during it", len(keys))
	}
}

func TestRoundCloseInBetweenNeitherAppliesNorRearms(t *testing.T) {
	const n = 16
	loop := sim.NewLoop(1)
	b := stepBrain(t, Config{N: n, Clock: loop, RouteEpoch: 10 * time.Minute})
	e := entryOf(b, pairKey{0, 9})
	l := pairKey{e.raw[0].Nodes[0], e.raw[0].Nodes[1]}
	slower(b, l)
	size := len(b.SortedPIBKeys())
	hooks := 0
	b.planHook = func() {
		hooks++
		b.Close()
	}
	loop.RunUntil(11 * time.Minute) // the epoch timer runs the round
	if hooks != 1 {
		t.Fatalf("the timer ran %d rounds, want 1", hooks)
	}
	if got := b.tel.pibInvalidated.Load(); got != 0 {
		t.Fatalf("a round that found the Brain closed dropped %d entries", got)
	}
	if got := len(b.SortedPIBKeys()); got != size {
		t.Fatalf("PIB shrank from %d to %d entries across Close", size, got)
	}
	// Not re-armed: more dirt and five more epochs of virtual time run no
	// further round, and an explicit call is a no-op too.
	slower(b, l)
	loop.RunUntil(61 * time.Minute)
	b.AdvanceEpoch()
	if hooks != 1 || b.tel.invalidateIncremental.Load() != 1 {
		t.Fatalf("rounds after Close: hook ran %d times, %d incremental rounds", hooks, b.tel.invalidateIncremental.Load())
	}
}

// TestRoundsBesideServing is the -race net for the one writer that runs
// beside the Brain's readers: lookups, link reports (routine, failures and
// the revivals that invalidate at once), overload alarms and drains run
// from their own goroutines while routing rounds run back to back. Every
// served path must be a walk over reported links from the producer to the
// consumer, and once everything is quiet, one more round must leave the
// PIB serving exactly what a from-scratch recompute serves.
func TestRoundsBesideServing(t *testing.T) {
	const (
		n      = 24
		sid    = 5
		rounds = 30 // that took the incremental path
	)
	topo := topologies[1]
	producer := 3
	b := New(Config{N: n, Recompute: runner.Options{Workers: 3}})
	defer b.Close()
	deterministicMesh(b, n, 51, topo)
	b.RegisterStream(sid, producer)
	b.RecomputeAll()

	var stop atomic.Bool
	var wg sync.WaitGroup
	worker := func(label string, body func(rng *sim.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := sim.NewSource(52).Stream(label)
			for !stop.Load() {
				body(rng)
			}
		}()
	}
	link := func(rng *sim.Rand) (int, int) {
		for {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j && !topo.skip(i, j) {
				return i, j
			}
		}
	}
	checkPaths := func(consumer int, paths [][]int) {
		for _, p := range paths {
			ok := len(p) >= 1 && p[0] == producer && p[len(p)-1] == consumer && len(p)-1 <= DefaultMaxHops
			for i := 0; ok && i+1 < len(p); i++ {
				ok = p[i] != p[i+1] && !topo.skip(p[i], p[i+1])
			}
			if !ok {
				t.Errorf("lookup for consumer %d served %v: not a ≤%d-hop walk over reported links from %d", consumer, p, DefaultMaxHops, producer)
			}
		}
	}
	for g := 0; g < 2; g++ {
		worker("lookup", func(rng *sim.Rand) {
			c := rng.Intn(n)
			paths, err := b.Lookup(sid, c)
			if err != nil {
				t.Errorf("lookup: %v", err)
			}
			checkPaths(c, paths)
		})
	}
	worker("report", func(rng *sim.Rand) {
		i, j := link(rng)
		switch rng.Intn(8) {
		case 0:
			b.ReportLinkDown(i, j)
		default: // a routine report; on a down link, the at-once revival
			b.ReportLink(i, j, time.Duration(2000+rng.Intn(90000))*time.Microsecond, rng.Float64()*0.005, rng.Float64()*0.5)
		}
		time.Sleep(50 * time.Microsecond)
	})
	worker("alarm", func(rng *sim.Rand) {
		id := rng.Intn(n)
		b.OverloadAlarm(id, 0.82+rng.Float64()*0.1)
		time.Sleep(300 * time.Microsecond)
		b.ReportNodeLoad(id, rng.Float64()*0.4)
	})
	worker("drain", func(rng *sim.Rand) {
		id := rng.Intn(n)
		b.SetDraining(id, true)
		time.Sleep(300 * time.Microsecond)
		b.SetDraining(id, false)
	})
	for start := time.Now(); b.tel.invalidateIncremental.Load() < rounds && time.Since(start) < 20*time.Second; {
		b.AdvanceEpoch()
		b.PrefetchPaths(sid)               // refill, so the next round has entries to judge
		time.Sleep(200 * time.Microsecond) // a few reports per round, not a full drop's worth
	}
	stop.Store(true)
	wg.Wait()
	if got := b.tel.invalidateIncremental.Load(); got < rounds {
		t.Fatalf("%d rounds took the incremental path in 20 s, want %d: the stress ran too few plan steps beside the serving calls", got, rounds)
	}

	b.AdvanceEpoch()
	kept := make(map[pairKey][][]int)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				kept[pairKey{s, d}] = b.LookupByProducer(s, d)
			}
		}
	}
	b.InvalidateAll()
	for k, want := range kept {
		if got := b.LookupByProducer(k.src, k.dst); !pathsEqual(got, want) {
			t.Fatalf("pair %v: the PIB after the rounds served %v, a from-scratch recompute serves %v", k, want, got)
		}
	}
}
