package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"livenet/internal/brain"
	"livenet/internal/sim"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

// brainCfg sizes the brain-serve workload.
type brainCfg struct {
	n           int
	streams     int     // registered streams, looked up by Zipf(1.0) popularity
	warm        int     // most popular streams whose PIB rows are computed in set-up
	rate        float64 // phase A: open-loop lookups per second
	outstanding int     // phase B: closed-loop lookups in flight
	churn       float64 // share of links re-reported before each epoch
	epochEvery  time.Duration
	shareA      float64 // share of the window spent in phase A
}

// brainFleetSeed fixes the fleet (sites, links, their measurements), the
// producers and which links each churn round re-reports: the cost of an
// epoch and of a cold lookup moves by a factor of two with any of them,
// which would drown every bound. The workload seed draws the lookups:
// their times, streams and consumers.
const brainFleetSeed = 7

const (
	brainSIDBase    = 100
	brainClientID   = 1 // overlay IDs of the bench's two client endpoints
	brainReporterID = 2
	lookupLimit     = 10 * time.Millisecond // latency limit a lookup must meet
	lookupTimeout   = 2 * time.Second       // unanswered after this: failed
)

func runBrainServe(o runOpts) (*runResult, error) {
	cfg := brainCfg{n: fleetN, streams: 48, warm: 12, rate: 4000, outstanding: 32, churn: 0.01, epochEvery: time.Second, shareA: 0.8}
	if o.small {
		cfg.n, cfg.streams, cfg.warm, cfg.rate, cfg.epochEvery = 120, 12, 4, 1000, 300*time.Millisecond
	}
	return runBrain(o, cfg)
}

// lookupRec is one lookup's trace points (ns since the rig epoch).
type lookupRec struct {
	sid      uint32
	consumer int
	cold     bool // first lookup of this pair, on a stream set-up did not warm: the Brain has no row for it
	due      int64
	send0    int64 // BrainClient.Lookup call and return
	send1    int64
	srv0     int64 // BrainAPI.Lookup enter and exit inside the server (traced run)
	srv1     int64
	done     atomic.Int64 // callback
	bad      atomic.Bool  // errored or returned an invalid path
}

// brainRig is one built Brain behind its server, with the two clients.
type brainRig struct {
	cfg      brainCfg
	epoch    time.Time
	fl       *fleet
	br       *brain.Brain
	srv      *udprun.BrainServer
	cliEP    *udprun.Endpoint
	cli      *udprun.BrainClient
	repEP    *udprun.Endpoint
	rep      *udprun.BrainClient
	producer map[uint32]int

	// Traced run: requests in send order, matched to the server's
	// BrainAPI.Lookup calls (one client socket and one server loop keep
	// them in order; a lost datagram is skipped by matching the key).
	mu      sync.Mutex
	pending []*lookupRec
	traced  bool
}

func (r *brainRig) nowNs() int64 { return int64(time.Since(r.epoch)) }

// tracedBrain is the BrainAPI seam: it times Lookup inside the server.
type tracedBrain struct {
	udprun.BrainAPI
	r *brainRig
}

func (t *tracedBrain) Lookup(sid uint32, consumer int) ([][]int, error) {
	t0 := t.r.nowNs()
	paths, err := t.BrainAPI.Lookup(sid, consumer)
	t1 := t.r.nowNs()
	t.r.mu.Lock()
	for len(t.r.pending) > 0 {
		rec := t.r.pending[0]
		t.r.pending = t.r.pending[1:]
		if rec.sid == sid && rec.consumer == consumer {
			rec.srv0, rec.srv1 = t0, t1
			break
		}
	}
	t.r.mu.Unlock()
	return paths, err
}

func buildBrain(cfg brainCfg, fl *fleet, trace bool) (*brainRig, error) {
	r := &brainRig{cfg: cfg, epoch: time.Now(), fl: fl, producer: map[uint32]int{}, traced: trace}
	// The monolith, configured as cmd/livenet-brain does by default.
	r.br = brain.New(brain.Config{N: cfg.n, LastResort: r.fl.ixps, Clock: sim.NewRealClock()})
	r.fl.reportAll(r.br)
	place := sim.NewSource(brainFleetSeed).Stream("producers")
	for s := 0; s < cfg.streams; s++ {
		sid := uint32(brainSIDBase + s)
		r.producer[sid] = place.Intn(cfg.n)
		r.br.RegisterStream(sid, r.producer[sid])
	}
	for s := 0; s < cfg.warm; s++ {
		if _, err := r.br.PrefetchPaths(uint32(brainSIDBase + s)); err != nil {
			return nil, fmt.Errorf("PIB warm-up: %w", err)
		}
	}
	var api udprun.BrainAPI = r.br
	if trace {
		api = &tracedBrain{BrainAPI: r.br, r: r}
	}
	var err error
	if r.srv, err = udprun.NewBrainServer(api, "127.0.0.1:0"); err != nil {
		r.close()
		return nil, err
	}
	if r.cliEP, r.cli, err = brainClient(brainClientID, r.srv.Addr()); err != nil {
		r.close()
		return nil, err
	}
	if r.repEP, r.rep, err = brainClient(brainReporterID, r.srv.Addr()); err != nil {
		r.close()
		return nil, err
	}
	// One answered lookup proves the RPC path before the clock starts.
	ok := make(chan bool, 1)
	r.cli.Lookup(brainSIDBase, (r.producer[brainSIDBase]+1)%cfg.n, func(p [][]int, err error) { ok <- err == nil && len(p) > 0 })
	select {
	case good := <-ok:
		if !good {
			r.close()
			return nil, fmt.Errorf("first lookup failed")
		}
	case <-time.After(lookupTimeout):
		r.close()
		return nil, fmt.Errorf("first lookup unanswered")
	}
	return r, nil
}

func brainClient(id int, addr string) (*udprun.Endpoint, *udprun.BrainClient, error) {
	ep, err := udprun.Listen(id, "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	cli, err := udprun.NewBrainClient(ep, addr)
	if err != nil {
		ep.Close()
		return nil, nil, err
	}
	ep.Serve(cli.WrapHandler(func(int, []byte) {}))
	return ep, cli, nil
}

func (r *brainRig) close() {
	if r.cliEP != nil {
		r.cliEP.Close()
	}
	if r.repEP != nil {
		r.repEP.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	r.br.Close()
}

// lookup issues one request; done, if set, is called when it completes.
func (r *brainRig) lookup(rec *lookupRec, done func()) {
	if r.traced {
		r.mu.Lock()
		r.pending = append(r.pending, rec)
		r.mu.Unlock()
	}
	producer := r.producer[rec.sid]
	rec.send0 = r.nowNs()
	r.cli.Lookup(rec.sid, rec.consumer, func(paths [][]int, err error) {
		if err != nil || len(paths) == 0 {
			rec.bad.Store(true)
		}
		for _, p := range paths {
			if !r.fl.validPath(p, producer, rec.consumer) {
				rec.bad.Store(true)
			}
		}
		rec.done.Store(r.nowNs())
		if done != nil {
			done()
		}
	})
	rec.send1 = r.nowNs()
}

// churnLoop re-reports a share of the links through the second client
// and then advances the routing epoch, once per epochEvery, until stop.
// It returns the AdvanceEpoch call times (ms) in round order.
func (r *brainRig) churnLoop(stop <-chan struct{}) []float64 {
	var epochs []float64
	dirty := max(int(float64(len(r.fl.links))*r.cfg.churn), 1)
	round := 0
	tick := time.NewTicker(r.cfg.epochEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return epochs
		case <-tick.C:
		}
		round++
		for k := 0; k < dirty; k++ {
			l := r.fl.links[(round*dirty+k)%len(r.fl.links)]
			rtt := r.fl.world.RTT(l[0], l[1]) + time.Duration(1+(round+k)%7)*time.Millisecond
			r.rep.Report(wire.NodeReport{
				From: uint16(l[0]), To: uint16(l[1]),
				RTTMicros: uint32(rtt / time.Microsecond), LossPPM: 500, UtilPercent: 1000, NodeUtil: 1000,
			})
		}
		// The reports are datagrams: give the server loop time to ingest
		// them, so the epoch has this round's changes to work on.
		time.Sleep(r.cfg.epochEvery / 10)
		t0 := time.Now()
		r.br.AdvanceEpoch()
		epochs = append(epochs, msOf(time.Since(t0)))
	}
}

func runBrain(o runOpts, cfg brainCfg) (*runResult, error) {
	res := &runResult{}
	// The fleet is an input, not part of set-up: set-up is what
	// livenet-brain and its clients do with it.
	fl := sharedFleet(cfg.n)
	var rig *brainRig
	var setups []time.Duration
	for n := 0; n < max(o.setups, 1); n++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = buildBrain(cfg, fl, o.trace); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer rig.close()
	r := rig

	// Phase A's schedule is drawn from the seed before anything runs.
	src := sim.NewSource(o.seed)
	durA := time.Duration(float64(o.window()) * cfg.shareA)
	due := poissonSchedule(src.Stream("lookups"), cfg.rate, durA)
	zipf := sim.NewZipf(src.Stream("popularity"), cfg.streams, 1.0)
	who := src.Stream("consumer")
	draw := func(maxRank int) (uint32, int) {
		rank := zipf.Draw()
		for rank >= maxRank {
			rank = zipf.Draw()
		}
		return uint32(brainSIDBase + rank), who.Intn(cfg.n)
	}
	recsA := make([]*lookupRec, len(due))
	asked := map[[2]int]bool{}
	for i, d := range due {
		sid, c := draw(cfg.streams)
		pair := [2]int{int(sid), c}
		recsA[i] = &lookupRec{sid: sid, consumer: c, due: int64(d), cold: int(sid) >= brainSIDBase+cfg.warm && !asked[pair]}
		asked[pair] = true
	}

	stopChurn := make(chan struct{})
	var rounds []float64
	var churnDone sync.WaitGroup
	churnDone.Add(1)
	go func() {
		defer churnDone.Done()
		rounds = r.churnLoop(stopChurn)
	}()

	bm0 := r.br.Metrics()
	cpu0, start := cpuTime(), time.Now()
	base := int64(start.Sub(r.epoch))
	for _, rec := range recsA {
		rec.due += base
	}
	maxLate := openLoop(start, due, func(i int, _ time.Time) { r.lookup(recsA[i], nil) })
	if rest := time.Until(start.Add(durA)); rest > 0 {
		time.Sleep(rest)
	}
	elapsedA := time.Since(start)
	cpuA := cpuTime() - cpu0

	// Phase B: closed loop over the streams whose PIB rows set-up warmed,
	// churn continuing. With cold streams in the mix the rate is set by how
	// many never-asked (producer, consumer) pairs the draw happens to hit —
	// a 300 µs computation against a 10 µs hit — and swings by a factor of
	// two between seeds; phase A's latency distribution carries that cost.
	durB := o.window() - durA
	var recsB []*lookupRec
	// slots is generation<<32 | replies counted in it. A reply frees a slot
	// only in the generation it was sent in: once everything in flight has
	// been written off after a timeout, a reply that still turns up must
	// not free a second slot.
	var slots atomic.Uint64
	wake := make(chan struct{}, 1)
	idle := stoppedTimer()
	startB := time.Now()
	endB := startB.Add(durB)
	issued := 0 // in the current generation
	for time.Now().Before(endB) {
		for issued-int(uint32(slots.Load())) < cfg.outstanding {
			sid, c := draw(cfg.warm)
			rec := &lookupRec{sid: sid, consumer: c}
			rec.due = r.nowNs()
			recsB = append(recsB, rec)
			sentIn := slots.Load() >> 32
			r.lookup(rec, func() {
				for {
					v := slots.Load()
					if v>>32 != sentIn || slots.CompareAndSwap(v, v+1) {
						break
					}
				}
				select {
				case wake <- struct{}{}:
				default:
				}
			})
			issued++
		}
		if !await(wake, idle, lookupTimeout) {
			// Everything in flight was lost; it counts as unanswered.
			slots.Store((slots.Load()>>32 + 1) << 32)
			issued = 0
		}
	}
	elapsedB := time.Since(startB)
	close(stopChurn)
	churnDone.Wait()
	// Stragglers get the timeout to answer.
	all := append(append([]*lookupRec(nil), recsA...), recsB...)
	waitUntil(lookupTimeout, 10*time.Millisecond, func() bool {
		for i := len(all) - 1; i >= 0; i-- {
			if all[i].done.Load() == 0 {
				return false
			}
		}
		return true
	})
	bm1 := r.br.Metrics()

	latA, coldA := &sample{}, &sample{}
	var over, answeredA, answeredB int64
	for _, rec := range all {
		res.attempted++
		done := rec.done.Load()
		if done == 0 || done-rec.due > int64(lookupTimeout) {
			res.failed++
			continue
		}
		if rec.bad.Load() {
			res.failed++
			res.errorf("lookup stream %d consumer %d: error or invalid path", rec.sid, rec.consumer)
		}
	}
	for _, rec := range recsA {
		done := rec.done.Load()
		if done == 0 || rec.bad.Load() || done-rec.due > int64(lookupLimit) {
			over++
		}
		if done != 0 {
			answeredA++
			latA.add(float64(done-rec.due) / 1e6)
			if rec.cold {
				coldA.add(float64(done-rec.due) / 1e6)
			}
		}
	}
	endBns := r.nowNs()
	for _, rec := range recsB {
		if d := rec.done.Load(); d != 0 && d <= endBns && !rec.bad.Load() {
			answeredB++
		}
	}
	epochs := &sample{v: append([]float64(nil), rounds...)}
	if latA.n() == 0 || coldA.n() == 0 || answeredB == 0 || epochs.n() == 0 {
		return nil, fmt.Errorf("no lookup answered or no epoch run (phase A %d, cold %d, phase B %d, epochs %d)", latA.n(), coldA.n(), answeredB, epochs.n())
	}
	// Throughput is phase A's goodput: lookups answered inside the limit
	// per second, at the fixed offered rate. Phase B's closed-loop rate
	// swings by half between runs of one seed (it hinges on whether an
	// epoch fell back to dropping the whole PIB just before), so it is
	// reported without a bound.
	perS := float64(answeredB) / elapsedB.Seconds()
	good := float64(int64(len(recsA))-over) / elapsedA.Seconds()
	h := headline{setups: setups, throughput: good, ops: answeredA, cpu: cpuA}
	res.latency(&h, latA)
	// The control-plane operation a node waits for is the lookup the Brain
	// has no row for: the first one of a (stream, consumer) pair on a stream
	// set-up did not warm, which computes the pair's paths before it answers
	// (a miss join's RPC). AdvanceEpoch()'s own time is a per-layer metric:
	// the rounds cost 35 to 240 ms each, and the same round reads 120 or
	// 220 ms from one run to the next on the reference box.
	res.text = append(res.text, fmt.Sprintf("  AdvanceEpoch() under load, every round, ms: %.4g\n", rounds))
	res.controlOp(&h, "cold lookup (first of its pair, stream not warmed), due → callback", coldA)
	res.endToEnd(h)
	res.m.put("lookup_ms.p50", "ms", latA.pct(0.5), latA.n())
	res.m.put("lookup_ms.p99", "ms", latA.pct(0.99), latA.n())
	res.m.put("lookup_over_limit_ratio", "ratio", float64(over)/float64(len(recsA)), len(recsA))
	res.m.put("lookup_per_s", "1/s", perS, int(answeredB))
	res.m.put("epoch_ms.p50", "ms", epochs.pct(0.5), epochs.n())
	res.m.put("epoch_ms.mean", "ms", epochs.mean(), epochs.n())
	res.m.put("gen_late_ms.max", "ms", float64(maxLate)/float64(time.Millisecond), len(due))
	hits, misses := bm1.PIBHits-bm0.PIBHits, bm1.PIBMisses-bm0.PIBMisses
	if hits+misses > 0 {
		res.m.put("brain.pib_hit_ratio", "ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	res.m.put("bench.cpu_cores_busy", "cores", cpuA.Seconds()/elapsedA.Seconds(), 0)
	if o.trace {
		// Epochs that ran during phase A (one per epochEvery), at their mean cost.
		epochsInA := float64(int(elapsedA / cfg.epochEvery))
		r.tracedLookups(res, recsA, epochsInA*epochs.mean(), elapsedA)
	}
	return res, nil
}

// tracedLookups folds phase A's trace points into the lookup waterfall and
// the Brain's busy share: time inside BrainAPI.Lookup plus the epochs.
func (r *brainRig) tracedLookups(res *runResult, recs []*lookupRec, epochMs float64, window time.Duration) {
	w := &waterfall{names: []string{"generator.wait", "client.send", "server.queue_wait", "brain.serve_self", "reply"}}
	self := &sample{}
	for i, rec := range recs {
		done := rec.done.Load()
		if done == 0 || rec.srv1 == 0 {
			continue
		}
		w.add(uint64(i), rec.due, []int64{rec.send0, rec.send1, rec.srv0, rec.srv1, done})
		self.add(float64(rec.srv1-rec.srv0) / 1e3)
	}
	res.m.put("brain.serve_self_us.p50", "us", self.pct(0.5), self.n())
	busyUs := 0.0
	for _, v := range self.v {
		busyUs += v
	}
	res.m.put("brain.busy_share", "cores", (busyUs/1e3+epochMs)/float64(window/time.Millisecond), self.n())
	res.text = append(res.text, w.render("where the time goes, lookup due → callback (phase A)"))
	res.spans = w.spans
}
