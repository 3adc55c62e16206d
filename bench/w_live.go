package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"livenet/internal/client"
	"livenet/internal/media"
	"livenet/internal/node"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

// liveCfg sizes the live-lossy workload.
type liveCfg struct {
	streams int     // broadcasters at node 0, one 600 kbit/s rendition + audio each
	rate    float64 // viewer arrivals per second (Poisson)
	// stagger spreads the broadcasters' start times over one GoP interval:
	// independent broadcasters do not emit their I frames in the same
	// millisecond.
	stagger    time.Duration
	dwell      time.Duration
	viewerDrop float64 // receive drop at every viewer (media datagrams)
	relayDrop  float64 // receive drop in front of node 1 (media datagrams)
}

const (
	liveProducer   = 0
	liveRelay      = 1
	liveSrcID      = 900 // tracer label shared by every broadcaster's sender
	liveBcastBase  = clientIDBase
	liveSIDBase    = 10000 // broadcaster b: video stream liveSIDBase+10b, audio +1
	liveProbeVid   = 5000  // + 100*consumer + rank
	liveProbeRecv  = 6000  // + consumer: tracer label of that consumer's probes
	liveViewerBase = 20000
	liveStartupSLO = time.Second // the paper's fast-startup bound
	liveSettle     = 150 * time.Millisecond
	// liveRejoinGap keeps an arrival this far behind a departure on the same
	// (stream, consumer): packets of the torn-down subscription still in
	// flight would otherwise reach the new viewer ahead of its GoP prime.
	liveRejoinGap   = 25 * time.Millisecond
	liveFrameMaxPkt = 256
)

var liveConsumers = []int{2, 3, 4, 5}

func liveSID(rank int) uint32 { return liveSIDBase + 10*uint32(rank) }

// probeRanks lists the streams the probes at consumer number ci watch:
// every other stream by popularity rank. Each stream is so watched at
// exactly one consumer, which keeps all of them flowing over the 0→1
// link (a steady trunk load) while at the other consumer the stream
// comes and goes with its viewers, so joins there can miss.
func probeRanks(ci, streams int) []int {
	var out []int
	for rank := ci; rank < streams; rank += len(liveConsumers) {
		out = append(out, rank)
	}
	return out
}

func runLiveLossy(o runOpts) (*runResult, error) {
	cfg := liveCfg{streams: 6, rate: 70, stagger: 2 * time.Second, dwell: time.Second, viewerDrop: 0.02, relayDrop: 0.002}
	if o.small {
		cfg.streams, cfg.rate, cfg.stagger, cfg.dwell = 4, 30, 100*time.Millisecond, 300*time.Millisecond
	}
	return runLive(o, cfg)
}

// splitmix is a tiny seeded generator for the bench-owned drop wrappers
// (one per endpoint, used from that endpoint's receive goroutine only).
type splitmix uint64

func (s *splitmix) float() float64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// dropMedia wraps a handler with a seeded receive drop of MsgRTP
// datagrams. Control and RTCP always pass: the workload loses media, not
// subscriptions, so that no join fails by construction.
//
// The first media datagram is never dropped. client.Viewer finds a loss
// by the gap it leaves below a later sequence number, so it cannot see
// the loss of the first packet it was ever sent — the first packet of
// the I frame it needs to start — and would wait for the next GoP.
//
// on, when set, gates the drop: node 1's wrapper is switched on when the
// window opens, because a node has the same blind spot for the first
// packet of a stream it has never received before, and during set-up
// every stream is new to it.
func dropMedia(seed uint64, p float64, on *atomic.Bool, next func(from int, data []byte)) func(from int, data []byte) {
	rng := splitmix(seed)
	first := true
	return func(from int, data []byte) {
		if wire.Kind(data) == wire.MsgRTP {
			if !first && (on == nil || on.Load()) && rng.float() < p {
				return
			}
			first = false
		}
		next(from, data)
	}
}

// liveRig is one built instance of the star with its broadcasters and probes.
type liveRig struct {
	cfg   liveCfg
	seed  int64
	epoch time.Time
	ov    *overlay
	tr    *tracer
	reg   *telemetry.Registry

	bcasts  []*client.Broadcaster
	beps    []*udprun.Endpoint
	probes  []*probe
	watched map[uint32]bool // video streams the probes watch (read-only after build)

	mu         sync.Mutex
	frameStart map[uint64]int64 // (SSRC, frame) → first packet handed to the Sender, ns

	mediaRx     atomic.Int64 // media datagrams delivered to viewers and probes
	relayDropOn atomic.Bool  // node 1's receive drop is active (from the start of the window)
}

func (r *liveRig) nowNs() int64 { return int64(time.Since(r.epoch)) }

func frameKey(ssrc, frame uint32) uint64 { return uint64(ssrc)<<32 | uint64(frame) }

// stampSender sits between a broadcaster and its endpoint and notes when
// the first packet of each watched frame is handed over: the start of
// the glass-to-glass interval.
type stampSender struct {
	r    *liveRig
	next node.Sender
}

func (s *stampSender) Send(from, to int, data []byte) error {
	if ssrc, _, ok := rtpID(data); ok && s.r.watched[ssrc] {
		body := data[wire.RTPHeaderLen:]
		var h media.FrameHeader
		if pl := rtp.PrefixLen(body); pl >= 0 && h.Unmarshal(body[pl:]) == nil && h.PktIdx == 0 {
			now := s.r.nowNs()
			s.r.mu.Lock()
			s.r.frameStart[frameKey(ssrc, h.FrameID)] = now
			s.r.mu.Unlock()
		}
	}
	return s.next.Send(from, to, data)
}

// probe is a long-lived receiver at a consumer: one socket registered
// under one viewer ID per watched stream. It timestamps completed frames
// and keeps every stream's delivered sequence set.
type probe struct {
	r        *liveRig
	consumer int
	ep       *udprun.Endpoint

	// Receive goroutine only (read by the run after the endpoint closes).
	frames map[uint64]*probeFrame
	seqs   map[uint32]*seqTrack
	done   []frameDone
}

type probeFrame struct {
	mask  [liveFrameMaxPkt / 64]uint64
	got   int
	first int64
}

// frameDone is one completed frame at a probe.
type frameDone struct {
	consumer int
	ssrc     uint32
	lastPkt  uint64 // pktKey of the packet that completed the frame
	start    int64  // first packet handed to the broadcaster's Sender
	arrive   int64
}

// seqTrack is the delivered sequence set of one stream at one probe.
type seqTrack struct {
	base  uint16  // first sequence number seen
	hi    int     // highest offset from base seen
	count []uint8 // copies per offset
}

func (t *seqTrack) add(seq uint16) {
	if t.count == nil {
		t.base = seq
		t.count = make([]uint8, 1, 4096)
		t.count[0] = 1
		return
	}
	off := t.hi + int(int16(seq-t.base-uint16(t.hi)))
	if off < 0 {
		return // before the join point
	}
	for len(t.count) <= off {
		t.count = append(t.count, 0)
	}
	if t.count[off] < 255 {
		t.count[off]++
	}
	if off > t.hi {
		t.hi = off
	}
}

// gaps counts sequence numbers never delivered between the first and
// the highest seen, and the duplicates among the delivered.
func (t *seqTrack) gaps() (missing, dups int) {
	for _, c := range t.count {
		if c == 0 {
			missing++
		} else {
			dups += int(c) - 1
		}
	}
	return
}

func (p *probe) onMessage(_ int, data []byte) {
	ssrc, seq, ok := rtpID(data)
	if !ok {
		return
	}
	now := p.r.nowNs()
	p.r.mediaRx.Add(1)
	p.r.tr.arrive(liveProbeRecv+p.consumer, data)
	st := p.seqs[ssrc]
	if st == nil {
		st = &seqTrack{}
		p.seqs[ssrc] = st
	}
	st.add(seq)
	body := data[wire.RTPHeaderLen:]
	var h media.FrameHeader
	pl := rtp.PrefixLen(body)
	if pl < 0 || h.Unmarshal(body[pl:]) != nil || h.PktCount == 0 || int(h.PktIdx) >= liveFrameMaxPkt {
		return
	}
	key := frameKey(ssrc, h.FrameID)
	f := p.frames[key]
	if f == nil {
		if len(p.frames) > 4096 {
			for k, old := range p.frames { // frames joined mid-way never complete
				if now-old.first > int64(2*time.Second) {
					delete(p.frames, k)
				}
			}
		}
		f = &probeFrame{first: now}
		p.frames[key] = f
	}
	bit := uint64(1) << (h.PktIdx % 64)
	if f.mask[h.PktIdx/64]&bit != 0 {
		return
	}
	f.mask[h.PktIdx/64] |= bit
	f.got++
	if f.got < int(h.PktCount) {
		return
	}
	delete(p.frames, key)
	p.r.mu.Lock()
	start, ok := p.r.frameStart[key]
	p.r.mu.Unlock()
	if ok {
		p.done = append(p.done, frameDone{consumer: p.consumer, ssrc: ssrc, lastPkt: pktKey(ssrc, seq), start: start, arrive: now})
	}
}

func liveNear(i, j int) bool { return i == liveRelay || j == liveRelay }

func buildLive(cfg liveCfg, seed int64, trace bool) (*liveRig, error) {
	r := &liveRig{cfg: cfg, seed: seed, epoch: time.Now(), watched: map[uint32]bool{}, frameStart: map[uint64]int64{}}
	for rank := 0; rank < cfg.streams; rank++ {
		r.watched[liveSID(rank)] = true
	}
	if trace {
		r.tr = newTracer(r.epoch, func(ssrc uint32, _ uint16) bool { return r.watched[ssrc] })
		r.reg = telemetry.NewRegistry()
	}
	ov, err := newOverlay(overlayOpts{
		nodes: 6,
		near:  liveNear,
		drop: func(id int, next func(int, []byte)) func(int, []byte) {
			if id != liveRelay {
				return next
			}
			return dropMedia(uint64(seed)*7919+1, cfg.relayDrop, &r.relayDropOn, next)
		},
		tr:  r.tr,
		reg: r.reg,
	})
	if err != nil {
		return nil, err
	}
	r.ov = ov
	// The encoders' frame sizes are an input that is the same for every
	// seed: a join lasts as long as the I frame takes to cross the viewer's
	// pacer, a window holds seven I frames per stream, and their sizes
	// drawn anew per seed moved the median join by 12 %.
	src := sim.NewSource(1)
	for b := 0; b < cfg.streams; b++ {
		id := liveBcastBase + b
		ep, err := udprun.Listen(id, "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.beps = append(r.beps, ep)
		if err := ep.AddPeer(liveProducer, ov.eps[liveProducer].Addr()); err != nil {
			r.close()
			return nil, err
		}
		ep.Serve(func(int, []byte) {})
		sender := &stampSender{r: r, next: r.tr.wrapClient(liveSrcID, ep)}
		bc := client.NewBroadcaster(id, liveProducer, liveSID(b), media.DefaultRenditions[2:], ov.clock, sender, src.Stream(fmt.Sprintf("bc%d", b)))
		r.bcasts = append(r.bcasts, bc)
	}
	for ci, c := range liveConsumers {
		ranks := probeRanks(ci, cfg.streams)
		for half := 0; half < 2; half++ {
			ep, err := udprun.Listen(liveProbeRecv+10*c+half, "127.0.0.1:0")
			if err != nil {
				r.close()
				return nil, err
			}
			p := &probe{r: r, consumer: c, ep: ep, frames: map[uint64]*probeFrame{}, seqs: map[uint32]*seqTrack{}}
			r.probes = append(r.probes, p)
			ep.Serve(p.onMessage)
			for i := half; i < len(ranks); i += 2 {
				if err := ov.eps[c].AddPeer(liveProbeVid+100*c+ranks[i], ep.Addr()); err != nil {
					r.close()
					return nil, err
				}
			}
		}
	}
	return r, nil
}

func (r *liveRig) close() {
	for _, b := range r.bcasts {
		b.Stop()
	}
	for _, ep := range r.beps {
		ep.Close()
	}
	for _, p := range r.probes {
		p.ep.Close()
	}
	if r.ov != nil {
		r.ov.close()
	}
}

func (r *liveRig) brainKnowsAll() bool {
	for b := 0; b < r.cfg.streams; b++ {
		if _, ok := r.ov.br.Producer(liveSID(b)); !ok {
			return false
		}
	}
	return true
}

// setup starts the broadcasters, waits until the Brain knows every
// stream, attaches the probes and waits until every watched stream is
// established at both consumers.
func (r *liveRig) setup() error {
	// One start slot per broadcaster, slots dealt in seeded order with a
	// little jitter: the GoPs are spread evenly whatever the seed, so set-up
	// takes the same time whatever the seed.
	rng := sim.NewSource(r.seed).Stream("stagger")
	slot := float64(r.cfg.stagger) / float64(len(r.bcasts))
	for i, b := range rng.Perm(len(r.bcasts)) {
		r.ov.clock.AfterFunc(time.Duration((float64(i)+0.2*rng.Float64())*slot), r.bcasts[b].Start)
	}
	if !waitUntil(r.cfg.stagger+5*time.Second, 2*time.Millisecond, r.brainKnowsAll) {
		return fmt.Errorf("streams never registered at the Brain")
	}
	// Nobody subscribes within milliseconds of a stream's first I frame: a
	// subscription that lands inside that burst can leave a downstream GoP
	// cache that starts in the middle of the frame (see README, Shapes).
	time.Sleep(liveSettle)
	for ci, c := range liveConsumers {
		for _, rank := range probeRanks(ci, r.cfg.streams) {
			r.ov.nodes[c].AttachViewer(liveProbeVid+100*c+rank, liveSID(rank))
		}
	}
	ok := waitUntil(5*time.Second, 2*time.Millisecond, func() bool {
		for ci, c := range liveConsumers {
			for _, rank := range probeRanks(ci, r.cfg.streams) {
				if !r.ov.nodes[c].HasStream(liveSID(rank)) {
					return false
				}
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("probe streams never established at the consumers")
	}
	for ci, c := range liveConsumers {
		if p := r.ov.nodes[c].StreamPath(liveSID(ci)); len(p) != 3 || p[1] != liveRelay {
			return fmt.Errorf("stream path to consumer %d is %v, want 0→1→%d", c, p, c)
		}
	}
	return nil
}

// view is one viewer's visit.
type view struct {
	vid      int
	rank     int
	consumer int
	due      time.Duration

	ep       *udprun.Endpoint
	v        *client.Viewer
	firstPkt atomic.Int64 // first media datagram handed to the viewer, ns
	mediaIn  atomic.Int64 // media datagrams handed to the viewer
	attach0  int64        // AttachViewer call and return, ns
	attach1  int64
	hit      bool

	left    bool
	stats   client.ViewStats
	late    time.Duration // generator lateness at attach
	problem string
}

// liveEvent is an arrival or a departure on the single scheduler timeline.
type liveEvent struct {
	at     time.Duration
	view   int
	depart bool
}

func (r *liveRig) arrive(vw *view, due time.Time) error {
	ep, err := udprun.Listen(vw.vid, "127.0.0.1:0")
	if err != nil {
		return err
	}
	vw.ep = ep
	c := vw.consumer
	if err := ep.AddPeer(c, r.ov.eps[c].Addr()); err != nil {
		return err
	}
	if err := r.ov.eps[c].AddPeer(vw.vid, ep.Addr()); err != nil {
		return err
	}
	sid := liveSID(vw.rank)
	vw.v = client.NewViewer(vw.vid, sid, c, r.ov.clock, ep)
	inner := vw.v.OnMessage
	ep.Serve(dropMedia(uint64(r.seed)*104729+uint64(vw.vid), r.cfg.viewerDrop, nil, func(from int, data []byte) {
		if wire.Kind(data) == wire.MsgRTP {
			r.mediaRx.Add(1)
			vw.mediaIn.Add(1)
			if vw.firstPkt.Load() == 0 {
				vw.firstPkt.Store(r.nowNs())
			}
		}
		inner(from, data)
	}))
	vw.late = time.Since(due)
	vw.v.Attach()
	vw.attach0 = r.nowNs()
	vw.hit = r.ov.nodes[c].AttachViewer(vw.vid, sid)
	vw.attach1 = r.nowNs()
	return nil
}

func (r *liveRig) depart(vw *view) {
	r.ov.nodes[vw.consumer].DetachViewer(vw.vid, liveSID(vw.rank))
	vw.stats = vw.v.Stats()
	vw.v.Close()
	vw.ep.Close()
	vw.left = true
}

func runLive(o runOpts, cfg liveCfg) (*runResult, error) {
	res := &runResult{}
	var rig *liveRig
	var setups []time.Duration
	for n := 0; n < max(o.setups, 1); n++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = buildLive(cfg, o.seed, o.trace); err != nil {
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

	// The arrival schedule is drawn from the seed before anything runs.
	src := sim.NewSource(o.seed)
	arrivals := poissonArrivals(src.Stream("arrivals"), cfg.rate, o.window()-cfg.dwell-100*time.Millisecond)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("window %v too short for a %v dwell", o.window(), cfg.dwell)
	}
	zipf := sim.NewZipf(src.Stream("popularity"), cfg.streams, 1.0)
	where := src.Stream("consumer")
	views := make([]*view, len(arrivals))
	events := make([]liveEvent, 0, 2*len(arrivals))
	lastLeft := map[[2]int]time.Duration{} // latest departure drawn so far per (stream, consumer)
	for i, at := range arrivals {
		vw := &view{vid: liveViewerBase + i, rank: zipf.Draw(), consumer: liveConsumers[where.Intn(len(liveConsumers))]}
		pair := [2]int{vw.rank, vw.consumer}
		if left, ok := lastLeft[pair]; ok && at >= left && at-left < liveRejoinGap {
			at = left + liveRejoinGap
		}
		vw.due = at
		lastLeft[pair] = max(lastLeft[pair], at+cfg.dwell)
		views[i] = vw
		events = append(events, liveEvent{at: at, view: i}, liveEvent{at: at + cfg.dwell, view: i, depart: true})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	due := make([]time.Duration, len(events))
	for i, e := range events {
		due[i] = e.at
	}

	nm0 := r.ov.nodeTotals()
	var snap0 telemetry.Snapshot
	if r.reg != nil {
		snap0 = r.reg.Snapshot()
	}
	rx0 := r.mediaRx.Load()
	r.relayDropOn.Store(true)
	cpu0, start := cpuTime(), time.Now()
	winStart := r.nowNs()
	var arriveErr error
	maxLate := openLoop(start, due, func(i int, at time.Time) {
		e := events[i]
		vw := views[e.view]
		if e.depart {
			if vw.v != nil {
				r.depart(vw)
			}
			return
		}
		if err := r.arrive(vw, at); err != nil && arriveErr == nil {
			arriveErr = err
		}
	})
	if rest := time.Until(start.Add(o.window())); rest > 0 {
		time.Sleep(rest)
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	winEnd := r.nowNs()
	rx := r.mediaRx.Load() - rx0
	nm1 := r.ov.nodeTotals()
	if arriveErr != nil {
		return nil, fmt.Errorf("viewer socket: %w", arriveErr)
	}

	// Stop the sources, let recovery finish, then freeze the probes.
	for _, b := range r.bcasts {
		b.Stop()
	}
	time.Sleep(600 * time.Millisecond)
	for _, p := range r.probes {
		p.ep.Close()
	}
	time.Sleep(20 * time.Millisecond)

	// Joins.
	hitMs, missMs, allMs := &sample{}, &sample{}, &sample{}
	hits := 0
	for _, vw := range views {
		if !vw.left {
			res.errorf("viewer %d never departed", vw.vid)
			continue
		}
		res.attempted++
		// A view that was sent nothing has failed. One that was served but
		// was not playing within the limit, or stalled, was served late: how
		// many there are depends on how the box schedules the process, so
		// they count in fail_ratio and against throughput, not as failed.
		join := vw.stats.StartupDelay + vw.late
		switch {
		case vw.mediaIn.Load() == 0:
			vw.problem = "failed: no media datagram before it left"
		case !vw.stats.Started:
			vw.problem = "not playing when it left"
		case join > liveStartupSLO:
			vw.problem = fmt.Sprintf("playing after %v", join)
		case vw.stats.Stalls > 0:
			vw.problem = fmt.Sprintf("%d stalls", vw.stats.Stalls)
		}
		if vw.problem != "" {
			if vw.mediaIn.Load() == 0 {
				res.failed++
			} else {
				res.late++
			}
			if res.failed+res.late <= 5 {
				first := time.Duration(-1)
				if f := vw.firstPkt.Load(); f != 0 {
					first = time.Duration(f - vw.attach0)
				}
				res.text = append(res.text, fmt.Sprintf("  view %d (stream rank %d at node %d, hit=%v, due %v, first media datagram after %v, %d received, %d frames missed): %s\n",
					vw.vid, vw.rank, vw.consumer, vw.hit, vw.due.Round(time.Millisecond), first.Round(time.Microsecond), vw.mediaIn.Load(), vw.stats.FramesMissed, vw.problem))
			}
			continue
		}
		ms := float64(join) / float64(time.Millisecond)
		allMs.add(ms)
		if vw.hit {
			hits++
			hitMs.add(ms)
		} else {
			missMs.add(ms)
		}
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("no viewer completed a visit")
	}

	// Frames at the probes, and the gap-free check on what they received.
	g2g := &sample{}
	var done []frameDone
	dupTotal := 0
	for _, p := range r.probes {
		for _, d := range p.done {
			if d.start >= winStart && d.arrive <= winEnd {
				g2g.add(float64(d.arrive-d.start) / 1e6)
				done = append(done, d)
			}
		}
		for ssrc, st := range p.seqs {
			missing, dups := st.gaps()
			if missing > 0 {
				res.errorf("probe at node %d stream %d: %d sequence numbers never delivered (of %d)", p.consumer, ssrc, missing, len(st.count))
			}
			dupTotal += dups
		}
	}
	res.m.put("bench.duplicates", "count", float64(dupTotal), 0)
	if g2g.n() == 0 {
		return nil, fmt.Errorf("the probes completed no frame")
	}

	okViews := res.attempted - res.failed - res.late
	h := headline{setups: setups, throughput: float64(okViews) / elapsed.Seconds(), ops: rx, cpu: cpu}
	res.latency(&h, g2g)
	res.controlOp(&h, "viewer join, AttachViewer → playing (hits and misses)", allMs)
	res.endToEnd(h)
	res.m.put("g2g_ms.p50", "ms", g2g.pct(0.5), g2g.n())
	res.m.put("g2g_ms.p99", "ms", g2g.pct(0.99), g2g.n())
	res.m.put("join_hit_ms.p50", "ms", hitMs.pct(0.5), hitMs.n())
	res.m.put("join_miss_ms.p50", "ms", missMs.pct(0.5), missMs.n())
	res.m.put("join_ms.p95", "ms", allMs.pct(0.95), allMs.n())
	res.m.put("gen_late_ms.max", "ms", float64(maxLate)/float64(time.Millisecond), len(events))
	res.m.put("bench.media_pps", "1/s", float64(rx)/elapsed.Seconds(), int(rx))
	res.m.put("bench.cpu_cores_busy", "cores", cpu.Seconds()/elapsed.Seconds(), 0)
	nodeCounts(&res.m, nm0, nm1, int(res.attempted), hits)
	if r.tr != nil {
		udprunCounts(&res.m, snap0, r.reg.Snapshot())
		r.traced(res, views, done, elapsed)
	}
	return res, nil
}

// traced folds the spans of a traced live run into the per-layer metrics
// and the two waterfalls (frame and join).
func (r *liveRig) traced(res *runResult, views []*view, done []frameDone, window time.Duration) {
	// Frame waterfall: follow the packet that completed each frame, per
	// consumer (both consumers complete the same packet, at different times).
	names := map[int]string{liveProducer: "producer", liveRelay: "relay"}
	for _, c := range liveConsumers {
		names[c] = "consumer"
	}
	var all *waterfall
	for _, c := range liveConsumers {
		byPkt := make(map[uint64]frameDone)
		for _, d := range done {
			if d.consumer == c {
				byPkt[d.lastPkt] = d
			}
		}
		lo, hi := liveProbeVid+100*c, liveProbeVid+100*c+r.cfg.streams
		w := r.tr.packetWaterfall(pktPath{
			src:     liveSrcID,
			nodes:   []int{liveProducer, liveRelay, c},
			lastTo:  func(to int) bool { return to >= lo && to < hi },
			recv:    liveProbeRecv + c,
			t0:      func(id uint64) (int64, bool) { d, ok := byPkt[id]; return d.start, ok },
			lead:    "broadcaster.frame_burst",
			filter:  func(id uint64) bool { _, ok := byPkt[id]; return ok },
			arrival: func(id uint64) (int64, bool) { d, ok := byPkt[id]; return d.arrive, ok },
			nameOf:  func(id int) string { return names[id] },
		})
		if all == nil {
			all = w
		} else {
			all.reqs = append(all.reqs, w.reqs...)
			all.spans = append(all.spans, w.spans...)
		}
	}
	tracedMetrics(&res.m, r.tr, all, window)
	res.text = append(res.text, all.render("where the time goes, first packet of a frame at the broadcaster's Sender → last packet at the probe"))
	res.spans = all.spans

	jw, chain, rtt := r.joinWaterfalls(views)
	res.m.put("node.subscribe_chain_ms.p50", "ms", chain.pct(0.5)/1e3, chain.n())
	res.m.put("node.lookup_rtt_us.p50", "us", rtt.pct(0.5), rtt.n())
	for _, w := range jw {
		res.text = append(res.text, w.w.render(w.title))
		res.spans = append(res.spans, w.w.spans...)
	}
}

type titled struct {
	title string
	w     *waterfall
}

// joinWaterfalls builds the miss and hit join waterfalls from the control
// events. A miss join is traced when it started its stream's lookup: a
// viewer that arrives while the lookup is pending rides on it and has no
// chain of its own.
func (r *liveRig) joinWaterfalls(views []*view) (out []titled, chain, rtt *sample) {
	r.tr.mu.Lock()
	ctl := append([]ctlEvent(nil), r.tr.ctl...)
	r.tr.mu.Unlock()
	sort.SliceStable(ctl, func(i, j int) bool { return ctl[i].t < ctl[j].t })
	next := func(kind string, node int, sid uint32, after, before int64) (int64, bool) {
		i := sort.Search(len(ctl), func(i int) bool { return ctl[i].t >= after })
		for ; i < len(ctl) && ctl[i].t <= before; i++ {
			if e := ctl[i]; e.kind == kind && e.node == node && e.sid == sid {
				return e.t, true
			}
		}
		return 0, false
	}
	miss := &waterfall{names: []string{"node.attach_call", "to_lookup_call", "lookup_rtt", "subscribe_to_relay", "relay_to_suback", "to_first_packet", "to_first_i_frame"}}
	hit := &waterfall{names: []string{"node.attach_call", "to_first_packet", "to_first_i_frame"}}
	chain, rtt = &sample{}, &sample{}
	for _, vw := range views {
		if vw.problem != "" || !vw.left || vw.firstPkt.Load() == 0 {
			continue
		}
		first := vw.firstPkt.Load()
		playing := vw.attach0 + int64(vw.stats.StartupDelay)
		if vw.hit {
			hit.add(uint64(vw.vid), vw.attach0, []int64{vw.attach1, first, playing})
			continue
		}
		sid := liveSID(vw.rank)
		call, ok1 := next("lookup_call", vw.consumer, sid, vw.attach0, first)
		cb, ok2 := next("lookup_cb", vw.consumer, sid, call, first)
		sub, ok3 := next("subscribe", liveRelay, sid, cb, first)
		ack, ok4 := next("suback", vw.consumer, sid, sub, first)
		if !(ok1 && ok2 && ok3 && ok4) {
			continue
		}
		miss.add(uint64(vw.vid), vw.attach0, []int64{vw.attach1, call, cb, sub, ack, first, playing})
		chain.add(float64(ack-cb) / 1e3)
		rtt.add(float64(cb-call) / 1e3)
	}
	return []titled{
		{"where the time goes, miss join: AttachViewer → playing", miss},
		{"where the time goes, hit join: AttachViewer → playing", hit},
	}, chain, rtt
}
