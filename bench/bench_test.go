package main

import (
	"math"
	"testing"
	"time"

	"livenet/internal/node"
	"livenet/internal/sim"
	"livenet/internal/wire"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		label string
		ok    bool
	}{
		{99, "", false}, // p90 of 99 leaves 9.9 beyond
		{100, "p90", true},
		{199, "p90", true},
		{200, "p95", true},
		{999, "p95", true},
		{1000, "p99", true},
		{9999, "p99", true},
		{10000, "p999", true},
		{100000, "p9999", true},
	}
	for _, c := range cases {
		_, label, ok := tailFor(c.n)
		if ok != c.ok || label != c.label {
			t.Errorf("tailFor(%d) = %q, %v; want %q, %v", c.n, label, ok, c.label, c.ok)
		}
	}
	if supported(999, 0.99) || !supported(1000, 0.99) {
		t.Error("p99 must be supported from exactly 1000 samples")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := &sample{}
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if (&sample{}).pct(0.5) != 0 {
		t.Error("an empty sample has no percentile")
	}
}

// TestQuartilesMatchPython pins quartiles against values computed with
// statistics.quantiles(v, n=4), the driver's spread rule.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{12, 7, 3, 9, 15, 21, 4, 8, 30, 11}
	q1, q2, q3 := quartiles(v)
	if math.Abs(q1-6.25) > 1e-9 || math.Abs(q2-10) > 1e-9 || math.Abs(q3-16.5) > 1e-9 {
		t.Errorf("quartiles = %v %v %v, want 6.25 10 16.5", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if math.Abs(q1-0.75) > 1e-9 || math.Abs(q2-1.5) > 1e-9 || math.Abs(q3-2.25) > 1e-9 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestPoissonScheduleIsSeededAndOpenLoop(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		return poissonSchedule(sim.NewSource(seed).Stream("arrivals"), 4000, 2*time.Second)
	}
	a, b, c := draw(7), draw(7), draw(8)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if a[i] >= 2*time.Second {
			t.Fatalf("arrival %d due after the window", i)
		}
	}
	if len(c) == len(a) && c[0] == a[0] {
		t.Error("a different seed drew the same schedule")
	}
	// 8000 expected arrivals: the count is within 5 sigma.
	if d := math.Abs(float64(len(a)) - 8000); d > 5*math.Sqrt(8000) {
		t.Errorf("%d arrivals at 4000/s over 2 s", len(a))
	}
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	due := []time.Duration{0, 5 * time.Millisecond, 6 * time.Millisecond, 7 * time.Millisecond}
	start := time.Now()
	var fired []time.Duration
	late := openLoop(start, due, func(i int, at time.Time) {
		if at != start.Add(due[i]) {
			t.Errorf("operation %d handed due time %v, want %v", i, at.Sub(start), due[i])
		}
		fired = append(fired, time.Since(start))
		if i == 1 {
			time.Sleep(20 * time.Millisecond) // a stall: the next ones are late and go out at once
		}
	})
	if len(fired) != len(due) {
		t.Fatalf("fired %d of %d", len(fired), len(due))
	}
	for i, f := range fired {
		if f < due[i] {
			t.Errorf("operation %d fired %v before it was due", i, due[i]-f)
		}
	}
	if late < 15*time.Millisecond {
		t.Errorf("max lateness %v does not show the 20 ms stall", late)
	}
	if gap := fired[3] - fired[2]; gap > 5*time.Millisecond {
		t.Errorf("late operations were not sent back to back (gap %v)", gap)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Span: 1},
		{Name: "a", Start: 10, End: 30, Parent: 1, Span: 2},
		{Name: "b", Start: 25, End: 50, Parent: 1, Span: 3},  // overlaps a by 5
		{Name: "c", Start: 90, End: 120, Parent: 1, Span: 4}, // sticks out of the parent by 20
		{Name: "a1", Start: 12, End: 20, Parent: 2, Span: 5}, // grandchild: counts against a only
		{Name: "lone", Start: 200, End: 260, Span: 6},        // no children
		{Name: "d", Start: -10, End: 5, Parent: 1, Span: 7},  // starts before the parent
		{Name: "empty", Start: 40, End: 40, Parent: 1, Span: 8},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (5 + 20 + 20 + 10), // d covers 0..5, a 10..30, b 30..50 (overlap once), c 90..100
		2: 20 - 8,
		3: 25,
		4: 30,
		5: 8,
		6: 60,
		7: 15,
		8: 0,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestWaterfallStagesSumToTotal(t *testing.T) {
	w := &waterfall{names: []string{"a", "b", "c"}}
	w.add(1, 1000, []int64{3000, 2500, 9000}) // b's boundary is before a's: clamped to zero
	w.add(2, 0, []int64{1000, 2000, 4000})
	if got := w.total().pct(1); got != 8 {
		t.Errorf("total = %v µs, want 8", got)
	}
	if w.reqs[0][1] != 0 {
		t.Errorf("a stage that ends before it starts must read 0, got %v", w.reqs[0][1])
	}
	for _, r := range w.reqs {
		if r[0]+r[1]+r[2] != map[float64]float64{2: 8, 1: 4}[r[0]] {
			t.Errorf("stages %v do not add up", r)
		}
	}
	self := selfTimes(w.spans)
	if self[1] != 0 {
		t.Errorf("root self time = %d: the stages must cover the request", self[1])
	}
}

// batchOnly records which entry point a node used.
type batchOnly struct{ send, vec, batch int }

func (b *batchOnly) Send(int, int, []byte) error            { b.send++; return nil }
func (b *batchOnly) SendVec(int, int, []byte, []byte) error { b.vec++; return nil }
func (b *batchOnly) SendBatch(_, _ int, v []wire.Vec) error { b.batch += len(v); return nil }

// TestTracedTransportKeepsBatchPath: a trace wrapper that exposed Send
// alone would silently move the node onto its serial path.
func TestTracedTransportKeepsBatchPath(t *testing.T) {
	under := &batchOnly{}
	tr := newTracer(time.Now(), sampleEvery(1))
	var wrapped node.Sender = tr.wrapNet(0, under)
	if _, ok := wrapped.(node.BatchSender); !ok {
		t.Fatal("traced transport does not implement node.BatchSender")
	}
	if _, ok := wrapped.(node.VecSender); !ok {
		t.Fatal("traced transport does not implement node.VecSender")
	}
	// A node built on the wrapper must submit its fan-out in batches.
	loop := sim.NewLoop(1)
	nd := node.New(node.Config{ID: 0, Clock: loop, Net: wrapped, IsOverlay: func(id int) bool { return id < 1000 }})
	defer nd.Close()
	sub := wire.Subscribe{StreamID: 9, Requester: 1}
	nd.OnMessage(1, sub.Marshal(nil))
	for seq := uint16(0); seq < 4; seq++ {
		nd.OnMessage(5000, mediaFrame(9, seq, 600))
	}
	loop.RunUntil(loop.Now() + 20*time.Millisecond)
	if under.batch != 4 || under.vec != 0 {
		t.Errorf("4 media packets went out as batch=%d vec=%d send=%d; want all 4 through SendBatch", under.batch, under.vec, under.send)
	}
	if got := tr.tx[0].pkts.Load(); got < 4 {
		t.Errorf("tracer counted %d sent packets, want at least 4", got)
	}
	tr.mu.Lock()
	n := len(tr.pkts)
	tr.mu.Unlock()
	if n != 8 {
		t.Errorf("%d trace points for 4 sampled packets, want a start and an end each", n)
	}
	if (*tracer)(nil).wrapNet(0, under) != netSender(under) {
		t.Error("with tracing off the node must get the transport itself")
	}
}

// TestCatalog: BENCHMARK.json is the program's metric catalogue, so it
// must name the workloads the program has and stay inside the limits the
// driver refuses a file for.
func TestCatalog(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(cat.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if cat.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, cat.Workloads[i].Name, w.name)
		}
		if why := cat.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(why))
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range cat.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen[mSetup] || len(cat.EndToEnd) > 16 || len(cat.PerLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("BENCHMARK.json breaks the driver's limits")
	}
}

func TestFleetPathCheck(t *testing.T) {
	f := newFleet(3, 40)
	l := f.links[0]
	if !f.validPath([]int{l[0], l[1]}, l[0], l[1]) {
		t.Error("a reported link is a valid one-hop path")
	}
	if f.validPath([]int{l[0], l[1]}, l[1], l[0]) {
		t.Error("a path must start at the producer and end at the consumer")
	}
	if f.validPath([]int{l[0], l[1], l[0], l[1]}, l[0], l[1]) {
		t.Error("a path with a loop is invalid")
	}
	var a, b int
	for a = 0; a < f.n; a++ {
		for b = 0; b < f.n; b++ {
			if a != b && !f.adj[a*f.n+b] {
				if f.validPath([]int{a, b}, a, b) {
					t.Errorf("%d→%d is not a reported link", a, b)
				}
				return
			}
		}
	}
}

// TestSmoke runs every workload at reduced size for about a second each,
// untraced; without -short it also runs each traced. It checks what the
// driver checks — a correct result carrying every end-to-end metric of
// BENCHMARK.json — and that every per-layer metric listed there is
// produced by the traced run of at least one workload.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	produced := map[string]bool{}
	for _, w := range workloads {
		modes := []bool{false}
		if !testing.Short() {
			modes = append(modes, true)
		}
		for _, traced := range modes {
			seconds := 1.2
			if traced {
				seconds = 3 // a traced run spends a third of its window untraced
			}
			rep, err := runOne(w, runOpts{seed: 5, seconds: seconds, trace: traced, small: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			// A view may miss the small run's short dwell on a slow box (or
			// under -race); validity must hold regardless.
			if !rep.Correct || rep.Failed*4 > rep.Attempted {
				t.Errorf("%s traced=%v: correct=%v failed=%d/%d %v %v", w.name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.Errors, rep.text)
			}
			if traced {
				for _, m := range rep.Metrics {
					produced[m.Name] = true
				}
				continue
			}
			line := rep.contract(cat, false)
			for _, d := range cat.EndToEnd {
				if v := line.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, d.Name, v)
				}
			}
		}
	}
	if !testing.Short() {
		for _, d := range cat.PerLayer {
			if !produced[d.Name] {
				t.Errorf("per-layer metric %s is in BENCHMARK.json but no traced run produced it", d.Name)
			}
		}
	}
}
