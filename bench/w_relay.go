package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"livenet/internal/media"
	"livenet/internal/node"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

// relayCfg parameterizes the two closed-loop forwarding workloads, which
// share the chain 0→1→2, the injector and the sink and differ in how the
// load is spread: many streams with one viewer each, or one stream with
// many viewers.
type relayCfg struct {
	headline string // named throughput metric
	streams  int
	viewers  int // viewer IDs per stream at node 2, all mapped to the sink socket
	sinks    int // sockets the viewer IDs are spread over (one receive goroutine each)
	window   int // ingress packets in flight
	warm     int // ingress packets completed in closed loop before measuring
	// pacedRate, when set, ends the window with an open loop at this many
	// ingress packets per second (pacedShare of the window): latency and the
	// join probe are then taken there, at a fixed load well below capacity,
	// and only the throughput comes from the saturated closed loop.
	pacedRate  float64
	pacedShare float64
	joinEvery  time.Duration // one join probe attaches this often…
	joinDwell  time.Duration // …and stays this long
}

const (
	relayInjectorID = clientIDBase
	relaySinkID     = clientIDBase + 500
	relayViewerBase = 2 * clientIDBase
	relayJoinSinkID = clientIDBase + 600
	relayJoinBase   = 3 * clientIDBase // viewer IDs of the join probes, one per probe
	relayJoinMax    = 512              // probes a run can hold (a 60 s window uses 320)
	relaySSRCBase   = 500
	relayPayload    = 1200 // RTP payload bytes: one single-packet frame
	relayGoP        = 30   // an I frame every 30 frames
	relayMaxPkts    = 1 << 21
	relayExpire     = time.Second
	relaySlice      = 250 * time.Millisecond // throughput is a percentile of the rates of slices this long
	// relayPeak is that percentile. The closed loop is bound by a timer or by
	// the CPU, and the reference box slows CPU-bound work down by 10-25 %
	// for seconds at a time and never speeds it up: the rate of the best
	// tenth of the slices is the rate of the undisturbed program, and a
	// slower program lowers every slice.
	relayPeak  = 0.9
	expiredBit = 1 << 31
	// pinnedRateBps pins every pacer and GCC bound so high that only the
	// pacer's burst cap and drain tick shape the flow.
	pinnedRateBps = 1e9
)

func runTrunkRelay(o runOpts) (*runResult, error) {
	cfg := relayCfg{headline: "trunk_pps", streams: 8, viewers: 1, sinks: 1, window: 256, warm: 2000,
		joinEvery: 250 * time.Millisecond, joinDwell: 100 * time.Millisecond}
	if o.small {
		cfg.warm = 200
	}
	return runRelay(o, cfg)
}

func runEdgeFanout(o runOpts) (*runResult, error) {
	// Eight sink sockets and a window of 128: a socket then never has more
	// than 128 × 16 datagrams on their way to it, which its receive buffer
	// holds, so a receive goroutine that a busy 2-core box keeps off the CPU
	// loses nothing. (One socket overflowed in four runs of ten, eight under
	// a window of 256 when other processes competed for the cores.)
	cfg := relayCfg{headline: "fanout_pps", streams: 1, viewers: 128, sinks: 8, window: 128, warm: 1000,
		pacedRate: 400, pacedShare: 0.4, joinEvery: 75 * time.Millisecond, joinDwell: 50 * time.Millisecond}
	if o.small {
		cfg.viewers, cfg.warm = 32, 100
	}
	return runRelay(o, cfg)
}

// relayRig is one built instance of the chain with its injector and sink.
type relayRig struct {
	cfg   relayCfg
	ov    *overlay
	inj   *udprun.Endpoint
	send  node.Sender // inj, behind the trace wrapper when tracing
	sinks []*relaySink
	tr    *tracer
	reg   *telemetry.Registry

	// Per ingress packet, indexed k*streams+s for stream s's k-th packet.
	sentNs []atomic.Int64  // send time, ns since epoch
	state  []atomic.Uint32 // copies delivered; expiredBit once given up on
	epoch  time.Time

	sent      int // scheduler goroutine only
	completed atomic.Int64
	expired   int // scheduler goroutine only
	oldest    int // first index not yet completed or expired
	// Set by the first closedLoop call: where window accounting starts.
	armed    bool
	from     int
	doneBase int64
	wake     chan struct{}

	payload []byte // scheduler goroutine only
	buf     []byte

	// Join probes (joinTick); all but the sockets belong to the scheduler
	// goroutine.
	joins    [2]*joinSock
	joinN    int   // probes finished
	joinVid  int   // the probe attached now, 0 when none
	joinAt   int64 // when that probe attached, or when the next one is due
	joinMs   sample
	joinLost int
}

// joinSock is one of the two sockets the join probes' viewer IDs map to.
// The probes use them in turn, so that datagrams still queued for a
// departed probe never pass for the first datagram of the next one.
type joinSock struct {
	r       *relayRig
	ep      *udprun.Endpoint
	waiting atomic.Bool
	first   atomic.Int64 // arrival of the first media datagram while waiting
}

func (j *joinSock) onMessage(_ int, data []byte) {
	if wire.Kind(data) == wire.MsgRTP && j.waiting.Load() && j.first.Load() == 0 {
		j.first.Store(j.r.nowNs())
	}
}

// relaySink is one receive socket; its fields belong to its receive
// goroutine (the run reads them after the endpoint is closed).
type relaySink struct {
	r      *relayRig
	ep     *udprun.Endpoint
	hi     []int // highest k seen per stream
	lat    []latRec
	strays int
}

type latRec struct {
	i  int
	ns int64
}

func chainNear(i, j int) bool { return i-j == 1 || j-i == 1 }

func buildRelay(cfg relayCfg, trace bool) (*relayRig, error) {
	r := &relayRig{
		cfg:     cfg,
		sentNs:  make([]atomic.Int64, relayMaxPkts),
		state:   make([]atomic.Uint32, relayMaxPkts),
		epoch:   time.Now(),
		wake:    make(chan struct{}, 1),
		payload: make([]byte, relayPayload),
	}
	if trace {
		r.tr = newTracer(r.epoch, sampleEvery(64))
		r.reg = telemetry.NewRegistry()
	}
	ov, err := newOverlay(overlayOpts{
		nodes: 3,
		near:  chainNear,
		tune: func(c *node.Config) {
			c.InitialRateBps, c.MinRateBps, c.MaxRateBps = pinnedRateBps, pinnedRateBps, pinnedRateBps
		},
		tr:  r.tr,
		reg: r.reg,
	})
	if err != nil {
		return nil, err
	}
	r.ov = ov
	if r.inj, err = udprun.Listen(relayInjectorID, "127.0.0.1:0"); err != nil {
		r.close()
		return nil, err
	}
	if err = r.inj.AddPeer(0, ov.eps[0].Addr()); err != nil {
		r.close()
		return nil, err
	}
	r.inj.Serve(func(int, []byte) {})
	r.send = r.tr.wrapClient(relayInjectorID, r.inj)
	for i := 0; i < cfg.sinks; i++ {
		ep, err := udprun.Listen(relaySinkID+i, "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		// lat is sized so that it does not grow (and leave garbage) while
		// measuring at today's rates.
		sk := &relaySink{r: r, ep: ep, hi: make([]int, cfg.streams), lat: make([]latRec, 0, (1<<18)/cfg.sinks)}
		r.sinks = append(r.sinks, sk)
		ep.Serve(sk.onMessage)
	}
	for v := 0; v < cfg.streams*cfg.viewers; v++ {
		if err = ov.eps[2].AddPeer(relayViewerBase+v, r.sinks[v%cfg.sinks].ep.Addr()); err != nil {
			r.close()
			return nil, err
		}
	}
	for i := range r.joins {
		ep, err := udprun.Listen(relayJoinSinkID+i, "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.joins[i] = &joinSock{r: r, ep: ep}
		ep.Serve(r.joins[i].onMessage)
	}
	for k := 0; k < relayJoinMax; k++ {
		if err = ov.eps[2].AddPeer(relayJoinBase+k, r.joins[k%2].ep.Addr()); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *relayRig) close() {
	if r.inj != nil {
		r.inj.Close()
	}
	for _, sk := range r.sinks {
		sk.ep.Close()
	}
	for _, j := range r.joins {
		if j != nil {
			j.ep.Close()
		}
	}
	if r.ov != nil {
		r.ov.close()
	}
}

func (r *relayRig) nowNs() int64 { return int64(time.Since(r.epoch)) }

// inject sends the next ingress packet (streams take turns). Its latency
// runs from at: the moment of the call in a closed loop (0), the time it
// was due in an open one.
func (r *relayRig) inject(at int64) {
	i := r.sent
	s, k := i%r.cfg.streams, i/r.cfg.streams
	ft := media.FrameP
	if k%relayGoP == 0 {
		ft = media.FrameI
	}
	h := media.FrameHeader{Type: ft, FrameID: uint32(k), GopID: uint32(k / relayGoP), PktCount: 1}
	h.Marshal(r.payload[:0])
	pkt := rtp.Packet{
		Marker:         true,
		PayloadType:    rtp.PayloadVideo,
		SequenceNumber: uint16(k),
		Timestamp:      uint32(k) * 3000,
		SSRC:           relaySSRCBase + uint32(s),
		HasDelayExt:    ft == media.FrameI,
		Payload:        r.payload,
	}
	now := r.nowNs()
	if at == 0 {
		at = now
	}
	r.buf = wire.FrameRTP(r.buf[:0], uint32(now/10_000), nil)
	r.buf = pkt.Marshal(r.buf)
	r.sentNs[i].Store(at)
	r.sent++
	_ = r.send.Send(relayInjectorID, 0, r.buf) // a refused send shows as an undelivered packet
}

// onMessage counts one delivered copy; the copy that completes a packet
// (on whichever socket it lands) stamps its latency and returns a window
// token.
func (sk *relaySink) onMessage(_ int, data []byte) {
	r := sk.r
	ssrc, seq, ok := rtpID(data)
	s := int(ssrc) - relaySSRCBase
	if !ok || s < 0 || s >= r.cfg.streams {
		sk.strays++
		return
	}
	k := sk.hi[s] + int(int16(seq-uint16(sk.hi[s])))
	if k > sk.hi[s] {
		sk.hi[s] = k
	}
	i := k*r.cfg.streams + s
	if k < 0 || i >= len(r.state) {
		sk.strays++
		return
	}
	r.tr.arrive(relaySinkID, data)
	v := r.state[i].Add(1)
	if v&expiredBit == 0 && int(v&^expiredBit) == r.cfg.viewers {
		sk.lat = append(sk.lat, latRec{i, r.nowNs() - r.sentNs[i].Load()})
		r.completed.Add(1)
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

func (r *relayRig) copies(i int) int { return int(r.state[i].Load() &^ expiredBit) }

// reap advances past completed packets and gives up on ones older than
// relayExpire, so a lost packet costs one window slot for a second, not
// for the rest of the run.
func (r *relayRig) reap(from int) {
	now := r.nowNs()
	for r.oldest < r.sent {
		i := r.oldest
		if i < from || r.copies(i) >= r.cfg.viewers {
			r.oldest++
			continue
		}
		if now-r.sentNs[i].Load() < int64(relayExpire) {
			return
		}
		for {
			v := r.state[i].Load()
			if int(v&^expiredBit) >= r.cfg.viewers {
				break
			}
			if r.state[i].CompareAndSwap(v, v|expiredBit) {
				r.expired++
				break
			}
		}
		r.oldest++
	}
}

// closedLoop keeps cfg.window ingress packets in flight until stop says
// otherwise.
func (r *relayRig) closedLoop(stop func() bool) {
	if !r.armed {
		// Window accounting starts here: whatever the trickle left behind
		// is not in flight.
		r.armed, r.from, r.doneBase = true, r.sent, r.completed.Load()
		r.oldest = r.sent
	}
	from, doneBase := r.from, r.doneBase
	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	for !stop() && r.sent < relayMaxPkts {
		inFlight := (r.sent - from) - int(r.completed.Load()-doneBase) - r.expired
		if inFlight < r.cfg.window {
			r.inject(0)
			if r.sent%r.cfg.window == 0 {
				r.reap(from)
			}
			continue
		}
		idle.Reset(20 * time.Millisecond)
		select {
		case <-r.wake:
		case <-idle.C:
			r.reap(from)
		}
	}
}

// drain waits until every packet sent since from has completed or expired.
func (r *relayRig) drain(from int) {
	waitUntil(relayExpire+time.Second, time.Millisecond, func() bool {
		r.reap(from)
		return r.oldest >= r.sent
	})
}

// pacedLoop is the open loop: one ingress packet at each of the due times
// drawn from the seed (Poisson at cfg.pacedRate, so that the injector keeps
// no fixed phase against the nodes' 2 ms drain timers), whatever the chain
// does with them, and the join probe beside it. A packet's latency runs
// from its due time. It returns how late the generator ran at worst.
func (r *relayRig) pacedLoop(seed int64, dur time.Duration) time.Duration {
	due := poissonSchedule(sim.NewSource(seed).Stream("paced"), r.cfg.pacedRate, dur)
	base := r.nowNs()
	r.joinAt = base + int64(r.cfg.joinEvery)/2
	return openLoop(r.epoch.Add(time.Duration(base)), due, func(i int, _ time.Time) {
		r.joinTick()
		r.inject(base + int64(due[i]))
	})
}

// joinTick runs the join probe from the scheduler goroutine. Every
// cfg.joinEvery one more viewer of stream 0 attaches at node 2 — a local
// hit, primed from the GoP cache — under the workload's load, stays for
// cfg.joinDwell and leaves; the probe's time runs from the AttachViewer
// call to its first datagram at the probe's socket. Its copies are not
// part of the delivered count.
func (r *relayRig) joinTick() {
	now := r.nowNs()
	sk := r.joins[r.joinN%2]
	if r.joinVid != 0 {
		if now-r.joinAt < int64(r.cfg.joinDwell) {
			return
		}
		r.ov.nodes[2].DetachViewer(r.joinVid, relaySSRCBase)
		sk.waiting.Store(false)
		if first := sk.first.Load(); first != 0 {
			r.joinMs.add(float64(first-r.joinAt) / 1e6)
		} else {
			r.joinLost++
		}
		r.joinVid = 0
		r.joinAt += int64(r.cfg.joinEvery)
		r.joinN++
		return
	}
	if now < r.joinAt || r.joinN >= relayJoinMax {
		return
	}
	sk.first.Store(0)
	sk.waiting.Store(true)
	r.joinVid = relayJoinBase + r.joinN
	r.joinAt = r.nowNs()
	r.ov.nodes[2].AttachViewer(r.joinVid, relaySSRCBase)
}

// setup brings the chain to steady closed-loop forwarding: streams are
// announced with a trickle, viewers attach once the Brain knows the
// producer, and cfg.warm packets complete in closed loop.
func (r *relayRig) setup() error {
	cfg := r.cfg
	trickle := func(cond func() bool) bool {
		return waitUntil(5*time.Second, 4*time.Millisecond, func() bool {
			if cond() {
				return true
			}
			for s := 0; s < cfg.streams; s++ {
				r.inject(0)
			}
			return false
		})
	}
	if !trickle(func() bool {
		for s := 0; s < cfg.streams; s++ {
			if _, ok := r.ov.br.Producer(relaySSRCBase + uint32(s)); !ok {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("streams never registered at the Brain")
	}
	for v := 0; v < cfg.streams*cfg.viewers; v++ {
		r.ov.nodes[2].AttachViewer(relayViewerBase+v, relaySSRCBase+uint32(v/cfg.viewers))
	}
	done := r.completed.Load()
	if !trickle(func() bool { return r.completed.Load() >= done+int64(4*cfg.streams) }) {
		return fmt.Errorf("viewers never received the streams (path %v)", r.ov.nodes[2].StreamPath(relaySSRCBase))
	}
	if p := r.ov.nodes[2].StreamPath(relaySSRCBase); len(p) != 3 {
		return fmt.Errorf("stream path is %v, want the chain 0→1→2", p)
	}
	time.Sleep(30 * time.Millisecond) // let trickle stragglers land before the window accounting starts
	target := r.completed.Load() + int64(cfg.warm)
	deadline := time.Now().Add(20 * time.Second)
	r.closedLoop(func() bool { return r.completed.Load() >= target || time.Now().After(deadline) })
	if r.completed.Load() < target {
		return fmt.Errorf("warm-up stalled: %d of %d packets completed", r.completed.Load()-(target-int64(cfg.warm)), cfg.warm)
	}
	return nil
}

func runRelay(o runOpts, cfg relayCfg) (*runResult, error) {
	res := &runResult{}
	var rig *relayRig
	var setups []time.Duration
	for n := 0; n < max(o.setups, 1); n++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = buildRelay(cfg, o.trace); err != nil {
			return nil, err
		}
		if err = rig.setup(); err != nil {
			rig.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer rig.close()
	r := rig

	// Measured window: the saturated closed loop, then (pacedRate set, and
	// not in a traced run, whose waterfall is the closed loop's) the paced
	// open loop.
	first := r.sent
	nm0 := r.ov.nodeTotals()
	var snap0 telemetry.Snapshot
	if r.reg != nil {
		snap0 = r.reg.Snapshot()
	}
	paced := cfg.pacedRate > 0 && !o.trace
	closedFor := o.window()
	if paced {
		closedFor = time.Duration((1 - cfg.pacedShare) * float64(closedFor))
	}
	cpu0, t0 := cpuTime(), time.Now()
	end := t0.Add(closedFor)
	// Completions at every slice boundary: throughput is a percentile of the
	// slice rates, which a stall of the whole box for part of the window does
	// not move.
	type mark struct {
		at   time.Duration
		done int64
	}
	marks := []mark{{0, r.completed.Load()}}
	r.joinAt = r.nowNs() + int64(cfg.joinEvery)/2
	r.closedLoop(func() bool {
		if !paced {
			r.joinTick()
		}
		now := time.Now()
		if at := now.Sub(t0); at-marks[len(marks)-1].at >= relaySlice {
			marks = append(marks, mark{at, r.completed.Load()})
		}
		return now.After(end)
	})
	elapsed := time.Since(t0)
	cpu := cpuTime() - cpu0
	closedLast := r.sent
	var maxLate time.Duration
	if paced {
		r.drain(first) // the open loop starts on empty queues
		maxLate = r.pacedLoop(o.seed, o.window()-closedFor)
	}
	last := r.sent
	attaches := cfg.streams*cfg.viewers + r.joinN // over the rig's life: set-up's viewers and the probes
	if r.joinVid != 0 {                           // a probe cut short by the end of the window is not timed
		r.ov.nodes[2].DetachViewer(r.joinVid, relaySSRCBase)
		attaches++
	}
	r.drain(first) // everything sent in the window completes or expires
	nm1 := r.ov.nodeTotals()
	for _, sk := range r.sinks {
		sk.ep.Close()
	}
	time.Sleep(20 * time.Millisecond) // let the receive goroutines' last handler calls finish
	var lat []latRec
	strays := 0
	for _, sk := range r.sinks {
		lat = append(lat, sk.lat...)
		strays += sk.strays
	}

	// Validity: every ingress packet of the window reached every viewer
	// ID exactly once (gap-free per stream; extra copies are duplicates).
	var delivered, closedDelivered, dups int64
	for i := first; i < last; i++ {
		if i == closedLast {
			closedDelivered = delivered
		}
		c := r.copies(i)
		if c < cfg.viewers {
			res.failed++
			res.errorf("stream %d seq %d: %d of %d copies delivered", i%cfg.streams, i/cfg.streams, c, cfg.viewers)
			delivered += int64(c)
			continue
		}
		delivered += int64(cfg.viewers)
		dups += int64(c - cfg.viewers)
	}
	if closedLast == last {
		closedDelivered = delivered
	}
	res.attempted = int64(last - first)
	if res.attempted == 0 {
		return nil, fmt.Errorf("no packet sent in the window")
	}
	if strays > 0 {
		res.errorf("%d datagrams at the sink belong to no stream", strays)
	}
	latFirst, latWhat := first, "closed loop"
	if paced {
		latFirst, latWhat = closedLast, fmt.Sprintf("open loop at %g ingress packets/s", cfg.pacedRate)
	}
	ls := &sample{}
	for _, l := range lat {
		if l.i >= latFirst && l.i < last {
			ls.add(float64(l.ns) / 1e6)
		}
	}
	rates := &sample{}
	for i := 1; i < len(marks); i++ {
		rates.add(float64(marks[i].done-marks[i-1].done) * float64(cfg.viewers) / (marks[i].at - marks[i-1].at).Seconds())
	}
	pps := float64(closedDelivered) / elapsed.Seconds()
	if rates.n() >= 10 {
		pps = rates.pct(relayPeak)
	}
	res.text = append(res.text, fmt.Sprintf("  closed-loop rate over %v slices: p10=%.6g p50=%.6g p90=%.6g /s n=%d\n", relaySlice, rates.pct(0.1), rates.pct(0.5), rates.pct(0.9), rates.n()))
	// A probe that saw nothing is a stall of the box as often as of the
	// node; a run is invalid when more than a tenth of them did.
	if r.joinLost > 0 {
		res.text = append(res.text, fmt.Sprintf("  %d of %d join probes saw no datagram within %v\n", r.joinLost, r.joinLost+r.joinMs.n(), cfg.joinDwell))
	}
	if r.joinMs.n() == 0 || r.joinLost*10 > r.joinMs.n() {
		res.errorf("%d of %d join probes saw no datagram within %v", r.joinLost, r.joinLost+r.joinMs.n(), cfg.joinDwell)
	}
	h := headline{setups: setups, throughput: pps, ops: closedDelivered, cpu: cpu}
	res.text = append(res.text, "  latency and join probe under the "+latWhat+"\n")
	res.latency(&h, ls)
	res.controlOp(&h, "edge join under load, AttachViewer → first datagram (local hit)", &r.joinMs)
	res.endToEnd(h)
	res.m.put(cfg.headline, "1/s", pps, int(closedDelivered))
	if paced {
		res.m.put("gen_late_ms.max", "ms", msOf(maxLate), last-closedLast)
	}
	res.m.put("fail_ratio", "ratio", 1-float64(delivered)/float64(res.attempted*int64(cfg.viewers)), int(res.attempted))
	res.m.put("bench.duplicates", "count", float64(dups), 0)
	res.m.put("bench.cpu_cores_busy", "cores", cpu.Seconds()/elapsed.Seconds(), 0)
	nodeCounts(&res.m, nm0, nm1, attaches, int(nm1.LocalHits))
	if r.tr != nil {
		udprunCounts(&res.m, snap0, r.reg.Snapshot())
		r.traced(res, elapsed)
	}
	return res, nil
}

// traced folds the spans of a traced relay run into the per-layer
// metrics and the waterfall.
func (r *relayRig) traced(res *runResult, window time.Duration) {
	lo, hi := relayViewerBase, relayViewerBase+r.cfg.streams*r.cfg.viewers
	w := r.tr.packetWaterfall(pktPath{
		src:    relayInjectorID,
		nodes:  []int{0, 1, 2},
		lastTo: func(to int) bool { return to >= lo && to < hi },
		recv:   relaySinkID,
		copies: r.cfg.viewers,
	})
	tracedMetrics(&res.m, r.tr, w, window)
	res.text = append(res.text, w.render("where the time goes, injector Send → last copy at the sink"))
	res.spans = w.spans
}

// tracedMetrics derives the udprun.* and node.* traced metrics that every
// socket data-plane workload shares.
func tracedMetrics(m *metricSet, tr *tracer, w *waterfall, window time.Duration) {
	m.put("udprun.tx_busy_share", "cores", busyShare(tr.tx, window), 0)
	m.put("node.ingest_busy_share", "cores", busyShare(tr.ingest, window), 0)
	transit := w.pooled(func(n string) bool {
		return strings.HasPrefix(n, "transit.") && n != "transit.src" && n != "transit.recv"
	})
	m.put("udprun.hop_transit_us.p50", "us", transit.pct(0.5), transit.n())
	ingest := w.pooled(func(n string) bool { return strings.HasSuffix(n, ".ingest") })
	m.put("node.ingest_us.p50", "us", ingest.pct(0.5), ingest.n())
	wait := w.pooled(func(n string) bool { return strings.HasSuffix(n, ".pacer_wait") })
	m.put("node.pacer_wait_us.p50", "us", wait.pct(0.5), wait.n())
	m.put("node.pacer_wait_us.p99", "us", wait.pct(0.99), wait.n())
	// One hop: handler entry at node k → handler entry at node k+1.
	hop := &sample{}
	for _, req := range w.reqs {
		acc, open := 0.0, false
		for i, n := range w.names {
			if strings.HasSuffix(n, ".ingest") {
				if open {
					hop.add(acc)
				}
				acc, open = 0, true
			}
			if open {
				acc += req[i]
			}
			if n == "transit.recv" {
				open = false
			}
		}
	}
	m.put("node.hop_us.p50", "us", hop.pct(0.5), hop.n())
}
