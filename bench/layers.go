package main

import (
	"encoding/binary"
	"flag"
	"sync"
	"testing"
	"time"

	"livenet/internal/brain"
	"livenet/internal/brainfed"
	"livenet/internal/client"
	"livenet/internal/core"
	"livenet/internal/gcc"
	"livenet/internal/gop"
	"livenet/internal/graph"
	"livenet/internal/ksp"
	"livenet/internal/media"
	"livenet/internal/node"
	"livenet/internal/perfbench"
	"livenet/internal/pktbuf"
	"livenet/internal/replication"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

// The micro pass times direct calls into each layer's public functions.
// A group runs in the traced run of the workloads that exercise its
// layer (elsewhere its metrics read 0), and all groups run under -layers.
//
// Where internal/perfbench already has the benchmark, the micro pass runs
// that body through testing.Benchmark and converts its ns/op (fromPerfbench);
// only the timings perfbench lacks are written out here.

// layerBench is one group of per-layer timings.
type layerBench struct {
	group     string
	workloads []string // traced runs that include the group
	run       func(m *metricSet)
}

func (l layerBench) on(workload string) bool {
	for _, w := range l.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

var layerBenches = []layerBench{
	{"wire", []string{"edge-fanout", "brain-serve"}, layerWire},
	{"rtp", []string{"edge-fanout"}, layerRTP},
	{"pktbuf", []string{"edge-fanout"}, layerPktbuf},
	{"udprun", []string{"edge-fanout", "live-lossy", "brain-serve"}, layerUDPRun},
	{"node", []string{"trunk-relay", "edge-fanout", "live-lossy"}, layerNode},
	{"gcc", []string{"trunk-relay"}, layerGCC},
	{"gop", []string{"live-lossy"}, layerGoP},
	{"client", []string{"live-lossy", "sim-replay"}, layerClient},
	{"brain", []string{"brain-serve"}, layerBrain},
	{"brainfed", []string{"brain-serve"}, layerBrainFed},
	{"ksp+graph", []string{"brain-serve", "sim-replay"}, layerRouting},
	{"replication", []string{"brain-serve"}, layerReplication},
	{"sim+netem+telemetry", []string{"sim-replay"}, layerSim},
	{"core", []string{"sim-replay"}, layerCore},
}

// runLayers runs the groups keep selects (nil: all of them).
func runLayers(keep func(layerBench) bool) *metricSet {
	m := &metricSet{}
	for _, l := range layerBenches {
		if keep == nil || keep(l) {
			l.run(m)
		}
	}
	return m
}

// microBudget is how long one timing loop runs.
const microBudget = 60 * time.Millisecond

// perOp times fn(n) for growing n until a run lasts at least
// microBudget, and returns ns per operation of that run.
func perOp(fn func(n int)) (ns float64, n int) {
	n = 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= microBudget || n >= 1<<30 {
			return float64(d) / float64(n), n
		}
		if d < microBudget/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
}

func putNs(m *metricSet, name string, fn func(n int)) {
	ns, n := perOp(fn)
	m.put(name, "ns", ns, n)
}

func putUs(m *metricSet, name string, fn func(n int)) {
	ns, n := perOp(fn)
	m.put(name, "us", ns/1e3, n)
}

// perfTime is how long a perfbench body whose operation takes less than a
// millisecond runs. The fleet-scale bodies — seconds per operation, and
// an N=600 fleet to build on every start — run "1x": once.
const perfTime = "100ms"

var initTesting sync.Once

// putPerf runs the internal/perfbench body called spec for benchtime (a
// -test.benchtime value) and records its time per operation as metric
// name in unit ns, us or ms; per is the number of metric operations one
// benchmark iteration stands for. A body that fails records nothing.
func putPerf(m *metricSet, name, unit, spec, benchtime string, per float64) (r testing.BenchmarkResult) {
	initTesting.Do(testing.Init) // registers -test.benchtime, which testing.Benchmark reads
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return r
	}
	for _, sp := range perfbench.Specs() {
		if sp.Name == spec {
			r = testing.Benchmark(sp.Func)
		}
	}
	if r.N > 0 {
		scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
		m.put(name, unit, float64(r.T.Nanoseconds())/float64(r.N)/per/scale, r.N)
	}
	return r
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// mediaFrame builds one MsgRTP frame carrying a single-packet video frame
// with a payload of size bytes.
func mediaFrame(ssrc uint32, seq uint16, size int) []byte {
	h := media.FrameHeader{Type: media.FrameI, FrameID: uint32(seq), PktCount: 1}
	payload := h.Marshal(nil)
	payload = append(payload, make([]byte, max(size-len(payload), 0))...)
	pkt := rtp.Packet{Marker: true, PayloadType: rtp.PayloadVideo, SequenceNumber: seq, SSRC: ssrc, HasDelayExt: true, Payload: payload}
	return wire.FrameRTP(nil, 0, pkt.Marshal(nil))
}

func layerWire(m *metricSet) {
	body := mediaFrame(1, 1, relayPayload)[wire.RTPHeaderLen:]
	buf := make([]byte, 0, 2048)
	putNs(m, "wire.rtp_frame_ns", func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.FrameRTP(buf[:0], uint32(i), body)
			_, b, _ := wire.UnframeRTP(buf)
			sink += len(b)
		}
	})
	sub := wire.Subscribe{StreamID: 7, Requester: 3, Path: []uint16{2, 1, 0}}
	ack := wire.SubAck{StreamID: 7, Path: []uint16{0, 1, 2}}
	putNs(m, "wire.ctrl_codec_ns", func(n int) {
		for i := 0; i < n; i++ {
			var s wire.Subscribe
			var a wire.SubAck
			buf = sub.Marshal(buf[:0])
			_ = s.Unmarshal(buf)
			buf = ack.Marshal(buf[:0])
			_ = a.Unmarshal(buf)
			sink += len(s.Path) + len(a.Path)
		}
	})
	req := wire.PathRequest{StreamID: 7, Consumer: 3, Token: 99}
	resp := wire.PathResponse{StreamID: 7, Token: 99, OK: true, Paths: [][]uint16{{0, 5, 3}, {0, 9, 3}, {0, 5, 9, 3}}}
	putNs(m, "wire.brainrpc_codec_ns", func(n int) {
		for i := 0; i < n; i++ {
			var q wire.PathRequest
			var p wire.PathResponse
			buf = req.Marshal(buf[:0])
			_ = q.Unmarshal(buf)
			buf = resp.Marshal(buf[:0])
			_ = p.Unmarshal(buf)
			sink += int(q.Token) + len(p.Paths)
		}
	})
}

func layerRTP(m *metricSet) {
	pkt := rtp.Packet{Marker: true, PayloadType: rtp.PayloadVideo, SequenceNumber: 9, SSRC: 5, HasDelayExt: true, Payload: make([]byte, relayPayload)}
	buf := make([]byte, 0, 2048)
	putNs(m, "rtp.codec_ns", func(n int) {
		for i := 0; i < n; i++ {
			var p rtp.Packet
			buf = pkt.Marshal(buf[:0])
			_ = p.Unmarshal(buf)
			sink += int(p.SequenceNumber)
		}
	})
	nack := rtp.NACK{SenderSSRC: 1, MediaSSRC: 5, Lost: []uint16{10, 11, 14, 40}}
	rr := rtp.ReceiverReport{SenderSSRC: 1, MediaSSRC: 5, FractionLost: 3, HighestSeq: 100}
	remb := rtp.REMB{SenderSSRC: 1, BitrateBps: 8e6, SSRCs: []uint32{5}}
	putNs(m, "rtp.rtcp_codec_ns", func(n int) {
		for i := 0; i < n; i++ {
			var a rtp.NACK
			var b rtp.ReceiverReport
			var c rtp.REMB
			buf = rtp.MarshalNACK(&nack, buf[:0])
			_ = rtp.UnmarshalNACK(&a, buf)
			buf = rtp.MarshalRR(&rr, buf[:0])
			_ = rtp.UnmarshalRR(&b, buf)
			buf = rtp.MarshalREMB(&remb, buf[:0])
			_ = rtp.UnmarshalREMB(&c, buf)
			sink += len(a.Lost) + int(b.FractionLost) + len(c.SSRCs)
		}
	})
}

func layerPktbuf(m *metricSet) {
	pool := pktbuf.New()
	putNs(m, "pktbuf.get_release_ns", func(n int) {
		for i := 0; i < n; i++ {
			b := pool.Get(relayPayload)
			sink += b.Len()
			b.Release()
		}
	})
}

// udpPair is two endpoints on loopback that know each other.
func udpPair() (a, b *udprun.Endpoint, err error) {
	if a, err = udprun.Listen(1, "127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	if b, err = udprun.Listen(2, "127.0.0.1:0"); err != nil {
		a.Close()
		return nil, nil, err
	}
	if err = a.AddPeer(2, b.Addr()); err == nil {
		err = b.AddPeer(1, a.Addr())
	}
	if err != nil {
		a.Close()
		b.Close()
		return nil, nil, err
	}
	return a, b, nil
}

func layerUDPRun(m *metricSet) {
	// One-way loopback throughput, windowed so nothing is dropped: A sends
	// batches, B counts and returns a credit per batch.
	for _, sz := range []struct {
		name string
		size int
	}{{"udprun.loopback_pps.1200b", relayPayload}, {"udprun.loopback_pps.64b", 64}} {
		a, b, err := udpPair()
		if err != nil {
			continue
		}
		const batch, window = 16, 8
		credits := make(chan struct{}, window)
		got := 0
		b.Serve(func(int, []byte) {
			if got++; got%batch == 0 {
				credits <- struct{}{}
			}
		})
		a.Serve(func(int, []byte) {})
		frame := mediaFrame(1, 1, sz.size)
		vecs := make([]wire.Vec, batch)
		for i := range vecs {
			vecs[i] = wire.Vec{Hdr: frame[:wire.RTPHeaderLen+12], Payload: frame[wire.RTPHeaderLen+12:]}
		}
		for i := 0; i < window; i++ {
			credits <- struct{}{}
		}
		lost, timer := false, stoppedTimer()
		ns, n := perOp(func(n int) {
			for i := 0; i < n && !lost; i++ {
				lost = !await(credits, timer, time.Second)
				_ = a.SendBatch(1, 2, vecs)
			}
		})
		if !lost {
			m.put(sz.name, "1/s", 1e9/(ns/batch), n*batch)
		}
		a.Close()
		b.Close()
	}

	a, b, err := udpPair()
	if err != nil {
		return
	}
	defer a.Close()
	defer b.Close()
	pong := make(chan struct{}, 1)
	b.Serve(func(from int, data []byte) {
		if len(data) == 8 { // echo probe; the send-cost loops below use other sizes
			_ = b.Send(2, from, data)
		}
	})
	a.Serve(func(int, []byte) { pong <- struct{}{} })
	frame := mediaFrame(1, 1, relayPayload)
	vecs := make([]wire.Vec, udprun.DefaultBatch)
	for i := range vecs {
		vecs[i] = wire.Vec{Hdr: frame[:wire.RTPHeaderLen+12], Payload: frame[wire.RTPHeaderLen+12:]}
	}
	// Send cost alone: the receiver's socket buffer may overflow here, which
	// is fine — nothing waits for these datagrams.
	ns, n := perOp(func(n int) {
		for i := 0; i < n; i++ {
			_ = a.SendBatch(1, 2, vecs)
		}
	})
	m.put("udprun.send_batch_ns_per_pkt", "ns", ns/float64(len(vecs)), n*len(vecs))
	putNs(m, "udprun.send_single_ns", func(n int) {
		for i := 0; i < n; i++ {
			_ = a.Send(1, 2, frame)
		}
	})
	time.Sleep(20 * time.Millisecond) // let the flood drain before timing round trips
	rtt, timer := &sample{}, stoppedTimer()
	probe := make([]byte, 8)
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		_ = a.Send(1, 2, probe)
		if await(pong, timer, 100*time.Millisecond) {
			rtt.addDur(time.Since(t0), time.Microsecond)
		}
	}
	m.put("udprun.echo_rtt_us.p50", "us", rtt.pct(0.5), rtt.n())
	m.put("udprun.echo_rtt_us.p99", "us", rtt.pct(0.99), rtt.n())
}

func layerNode(m *metricSet) {
	// Handler → FIB fan-out to 10 / 100 overlay subscribers → pacer drain →
	// submit, on the virtual clock, per datagram out.
	putPerf(m, "node.fwd_ns_per_pkt.f10", "ns", "NodeForwardFanout10", perfTime, 10)
	putPerf(m, "node.fwd_ns_per_pkt.f100", "ns", "NodeForwardFanout100", perfTime, 100)

	// AttachViewer on a node that carries the stream with a warm GoP cache
	// (hit), and on one that must ask the Brain (miss: the call returns
	// once the lookup is scheduled).
	loop := sim.NewLoop(1)
	nd := node.New(node.Config{
		ID: 0, Clock: loop, Net: nullNet{},
		IsOverlay:  func(id int) bool { return id < 10_000 },
		PathLookup: func(uint32, int, func([][]int, error)) {}, // never answers: only the call is timed
	})
	defer nd.Close()
	const sid = 9
	for seq := uint16(0); seq < 2*relayGoP; seq++ {
		f := mediaFrame(sid, seq, relayPayload)
		payOff := wire.RTPHeaderLen + rtp.PrefixLen(f[wire.RTPHeaderLen:])
		if seq%relayGoP != 0 {
			f[payOff] = byte(media.FrameP)
		}
		binary.BigEndian.PutUint32(f[payOff+5:], uint32(seq)/relayGoP)
		nd.OnMessage(10_000, f)
	}
	loop.RunUntil(loop.Now() + 10*time.Millisecond)
	vid := 20_000
	hit := true
	putUs(m, "node.attach_hit_us", func(n int) {
		for i := 0; i < n; i++ {
			vid++
			hit = nd.AttachViewer(vid, sid) && hit
			nd.DetachViewer(vid, sid)
		}
	})
	if !hit {
		m.put("node.attach_hit_us", "us", 0, 0) // the cache was not warm: no hit was measured
	}
	putUs(m, "node.attach_miss_us", func(n int) {
		for i := 0; i < n; i++ {
			vid++
			nd.AttachViewer(vid, uint32(1000+i))
			nd.DetachViewer(vid, uint32(1000+i))
		}
	})
}

func layerGCC(m *metricSet) {
	p := gcc.NewPacer[int](10e6)
	now := time.Duration(0)
	putNs(m, "gcc.pacer_ns_per_pkt", func(n int) {
		for i := 0; i < n; i++ {
			p.Push(gcc.Item[int]{Class: gcc.ClassVideo, Size: relayPayload})
			now += time.Millisecond
			p.Drain(now, func(gcc.Item[int]) { sink++ })
		}
	})
	// What one link can carry however high its rate is set: 1200 B items
	// through one Pacer at 1e12 bit/s, drained every 2 ms of virtual time
	// the way node's drain timer does.
	cap := gcc.NewPacer[int](1e12)
	const ticks = 5000
	sent := 0
	for t := 1; t <= ticks; t++ {
		for cap.QueueLen() < 64 {
			cap.Push(gcc.Item[int]{Class: gcc.ClassVideo, Size: relayPayload})
		}
		cap.Drain(time.Duration(t)*2*time.Millisecond, func(gcc.Item[int]) { sent++ })
	}
	m.put("gcc.pacer_link_cap_pps", "1/s", float64(sent)/(ticks*0.002), sent)

	var ia gcc.InterArrival
	trend := gcc.NewTrendlineEstimator()
	aimd := gcc.NewAIMD(8e6, 100e3, 100e6)
	meter := gcc.NewRateMeter(0)
	t := time.Duration(0)
	putNs(m, "gcc.estimator_ns_per_pkt", func(n int) {
		for i := 0; i < n; i++ {
			t += time.Millisecond
			meter.Add(t, relayPayload)
			if d, ok := ia.Add(t, t+time.Duration(i%7)*100*time.Microsecond); ok {
				aimd.Update(trend.Update(d, t), meter.BitrateBps(t), t)
			}
		}
	})
}

// gopPackets packetizes frames of a 600 kbit/s encoder.
func gopPackets(frames int) []rtp.Packet {
	enc := media.NewEncoder(media.DefaultEncoderConfig(600_000), sim.NewSource(1).Stream("m"))
	pz := media.NewPacketizer(1)
	var out []rtp.Packet
	for i := 0; i < frames; i++ {
		out = pz.Packetize(enc.NextFrame(), 100, out)
	}
	return out
}

func layerGoP(m *metricSet) {
	pkts := gopPackets(100) // two GoPs
	asm := gop.NewAssembler(64)
	asm.OnFrame = func(gop.AssembledFrame) { sink++ }
	ns, n := perOp(func(n int) {
		for i := 0; i < n; i++ {
			for j := range pkts {
				asm.Push(&pkts[j])
			}
		}
	})
	m.put("gop.assemble_ns_per_pkt", "ns", ns/float64(len(pkts)), n*len(pkts))

	cache := gop.NewCache(3, 0)
	raw := make([][]byte, len(pkts))
	hdr := make([]media.FrameHeader, len(pkts))
	for i := range pkts {
		raw[i] = pkts[i].Marshal(nil)
		_ = hdr[i].Unmarshal(pkts[i].Payload)
	}
	round := uint32(0)
	ns, n = perOp(func(n int) {
		for i := 0; i < n; i++ {
			for j := range raw {
				h := hdr[j]
				h.GopID += 2 * round // GoP IDs keep rising, as in a live stream
				cache.Insert(h, pkts[j].SequenceNumber, raw[j])
			}
			round++
		}
	})
	m.put("gop.cache_insert_ns", "ns", ns/float64(len(raw)), n*len(raw))
	m.put("gop.startup_pkts", "count", float64(len(cache.StartupPackets())), 0)
}

type nullNet struct{}

func (nullNet) Send(int, int, []byte) error { sink++; return nil }

func layerClient(m *metricSet) {
	pkts := gopPackets(50)
	frames := make([][]byte, len(pkts))
	for i := range pkts {
		frames[i] = wire.FrameRTP(nil, uint32(i), pkts[i].Marshal(nil))
	}
	loop := sim.NewLoop(1)
	ns, n := perOp(func(n int) {
		for i := 0; i < n; i++ {
			v := client.NewViewer(2000, 1, 0, loop, nullNet{})
			for _, f := range frames {
				v.OnMessage(0, f)
			}
		}
	})
	m.put("client.viewer_ns_per_pkt", "ns", ns/float64(len(frames)), n*len(frames))

	bloop := sim.NewLoop(1)
	bc := client.NewBroadcaster(1000, 0, 500, media.DefaultRenditions[2:], bloop, nullNet{}, sim.NewSource(1).Stream("bc"))
	bc.Start()
	const fps = 25
	ns, n = perOp(func(n int) {
		bloop.RunUntil(bloop.Now() + time.Duration(n)*time.Second/fps)
	})
	bc.Stop()
	m.put("client.broadcaster_ns_per_frame", "ns", ns, n)
}

// fleetMemo shares the fixed fleet between the brain-serve workload and
// the micro pass (building N=600 takes seconds).
var fleetMemo struct {
	sync.Mutex
	fl *fleet
}

func sharedFleet(n int) *fleet {
	fleetMemo.Lock()
	defer fleetMemo.Unlock()
	if fleetMemo.fl == nil || fleetMemo.fl.n != n {
		fleetMemo.fl = newFleet(brainFleetSeed, n)
	}
	return fleetMemo.fl
}

const layerStreams = 12 // working set of the epoch timings, as internal/perfbench

func layerBrain(m *metricSet) {
	// perfbench's N=600 fleet: Lookup on a warm PIB row across quiet epochs,
	// a from-scratch epoch over 12 streams × 600 consumers, and the epoch
	// after 1 % of the links were re-reported (reports + AdvanceEpoch + refill).
	putPerf(m, "brain.lookup_hit_ns", "ns", "BrainLookup", perfTime, 1)
	putPerf(m, "brain.epoch_cold_ms", "ms", "BrainPaperScale", "1x", 1)
	putPerf(m, "brain.epoch_churn_ms", "ms", "BrainEpochChurn", "1x", 1)

	// What perfbench does not time, on the brain-serve fleet with the PIB
	// warm for layerStreams streams.
	f := sharedFleet(fleetN)
	br := brain.New(brain.Config{N: f.n, LastResort: f.ixps})
	defer br.Close()
	f.reportAll(br)
	fill := func() {
		for s := 0; s < layerStreams; s++ {
			_, _ = br.PrefetchPaths(uint32(brainSIDBase + s))
		}
	}
	for s := 0; s < layerStreams; s++ {
		br.RegisterStream(uint32(brainSIDBase+s), (s*f.n)/layerStreams)
	}
	fill()
	// churn re-reports 1 % of the links with a jittered RTT.
	churn := func(round int) {
		dirty := max(len(f.links)/100, 1)
		for k := 0; k < dirty; k++ {
			l := f.links[(round*dirty+k)%len(f.links)]
			br.ReportLink(l[0], l[1], f.world.RTT(l[0], l[1])+time.Duration(1+(round+k)%7)*time.Millisecond, 0.0005, 0.1)
		}
	}
	churn(1)
	br.AdvanceEpoch()
	t0 := time.Now()
	fill()
	m.put("brain.refill_ms", "ms", msOf(time.Since(t0)), 1)
	// Misses: a stream whose PIB rows were never computed.
	const coldSID = brainSIDBase + 1000
	br.RegisterStream(coldSID, f.n/2+1)
	t0 = time.Now()
	const misses = 200
	for i := 0; i < misses; i++ {
		p, _ := br.Lookup(coldSID, (i*7)%f.n)
		sink += len(p)
	}
	m.put("brain.lookup_miss_us", "us", float64(time.Since(t0))/1e3/misses, misses)
	l := f.links[0]
	rtt := f.world.RTT(l[0], l[1])
	putNs(m, "brain.report_link_ns", func(n int) {
		for i := 0; i < n; i++ {
			br.ReportLink(l[0], l[1], rtt+time.Duration(i%5)*time.Millisecond, 0.0005, 0.1)
		}
	})
	// Lookups issued directly while AdvanceEpoch runs: how long the one
	// mutex makes a reader wait.
	blocked := &sample{}
	for round := 2; round < 5; round++ {
		br.AdvanceEpoch()
		fill()
		churn(round)
		done := make(chan struct{})
		go func() {
			br.AdvanceEpoch()
			close(done)
		}()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
				t0 := time.Now()
				p, _ := br.Lookup(brainSIDBase, (round*31)%f.n)
				sink += len(p)
				blocked.addDur(time.Since(t0), time.Millisecond)
				time.Sleep(200 * time.Microsecond)
			}
		}
	}
	m.put("brain.lookup_blocked_ms.p99", "ms", blocked.pct(0.99), blocked.n())
}

func layerBrainFed(m *metricSet) {
	// perfbench's federation over the same fleet shape (ByRegionSplit): cold
	// and churn epoch, and the largest per-shard report fan-in.
	if r := putPerf(m, "brainfed.epoch_cold_ms", "ms", "BrainFederatedEpoch", "1x", 1); r.N > 0 {
		m.put("brainfed.max_shard_reports", "count", r.Extra["max_shard_reports"], int(r.Extra["shards"]))
	}
	putPerf(m, "brainfed.epoch_churn_ms", "ms", "BrainFederatedChurn", "1x", 1)

	// Same-shard and cross-shard lookups on warm rows, which perfbench lacks.
	f := sharedFleet(fleetN)
	fed := brainfed.New(brainfed.Config{Brain: brain.Config{N: f.n}, Partition: brainfed.ByRegionSplit(f.world, f.n/4)})
	defer fed.Close()
	f.reportAll(fed)
	const producer = 0
	fed.RegisterStream(brainSIDBase, producer)
	if _, err := fed.PrefetchPaths(brainSIDBase); err != nil {
		return
	}
	same, cross := -1, -1
	for c := 1; c < f.n && (same < 0 || cross < 0); c++ {
		if fed.ShardOf(c) == fed.ShardOf(producer) {
			if same < 0 {
				same = c
			}
		} else if cross < 0 {
			cross = c
		}
	}
	if same >= 0 {
		putNs(m, "brainfed.lookup_same_ns", func(n int) {
			for i := 0; i < n; i++ {
				p, _ := fed.Lookup(brainSIDBase, same)
				sink += len(p)
			}
		})
	}
	if cross >= 0 {
		putUs(m, "brainfed.lookup_cross_us", func(n int) {
			for i := 0; i < n; i++ {
				p, _ := fed.Lookup(brainSIDBase, cross)
				sink += len(p)
			}
		})
	}
}

func layerRouting(m *metricSet) {
	// perfbench: Yen k=3 on the 48-site full mesh, and the CSR row read
	// Dijkstra's inner loop runs on.
	putPerf(m, "ksp.yen_k3_us", "us", "YenKSPFullMesh", perfTime, 1)
	putPerf(m, "graph.neighbor_weights_ns", "ns", "GraphNeighborWeights", perfTime, 1)

	f := sharedFleet(fleetN)
	g := graph.New(f.n)
	for i, l := range f.links {
		g.SetLink(l[0], l[1], f.world.RTT(l[0], l[1]), f.loss[i], f.util[i])
	}
	putNs(m, "graph.set_link_ns", func(n int) {
		for i := 0; i < n; i++ {
			l := f.links[i%len(f.links)]
			g.SetLink(l[0], l[1], time.Duration(5+i%50)*time.Millisecond, 0.0005, 0.1)
		}
	})
	g.MaterializeWeights()
	var arena ksp.Arena
	putUs(m, "ksp.sssp_us", func(n int) {
		for i := 0; i < n; i++ {
			t := arena.SSSP(f.n, (i*37)%f.n, g.NeighborWeights)
			sink += len(t.Dist)
		}
	})
}

// paxosBus delivers replica messages in order from one queue.
type paxosBus struct {
	reps  []*replication.Replica
	queue []paxosMsg
}

type paxosMsg struct {
	from, to int
	m        replication.Msg
}

func (b *paxosBus) Send(from, to int, m replication.Msg) {
	b.queue = append(b.queue, paxosMsg{from, to, m})
}

func (b *paxosBus) pump() {
	for len(b.queue) > 0 {
		q := b.queue[0]
		b.queue = b.queue[1:]
		b.reps[q.to].OnMessage(q.from, q.m)
	}
}

func layerReplication(m *metricSet) {
	loop := sim.NewLoop(1)
	bus := &paxosBus{}
	peers := []int{0, 1, 2}
	for _, id := range peers {
		bus.reps = append(bus.reps, replication.NewReplica(id, peers, bus, loop))
	}
	defer func() {
		for _, r := range bus.reps {
			r.Close()
		}
	}()
	value := []byte("register stream 100 at node 7")
	ok := true
	putUs(m, "replication.commit_us", func(n int) {
		for i := 0; i < n; i++ {
			slot := bus.reps[0].Propose(value)
			bus.pump()
			if _, chosen := bus.reps[0].Chosen(slot); !chosen {
				ok = false
			}
		}
	})
	if !ok {
		m.put("replication.commit_us", "us", 0, 0) // a proposal did not commit: no figure
	}
}

func layerSim(m *metricSet) {
	// perfbench: the event loop's schedule → fire cycle, and the emulator's
	// send path with every packet drained.
	putPerf(m, "sim.schedule_ns", "ns", "LoopSchedule", perfTime, 1)
	putPerf(m, "netem.send_ns", "ns", "NetemSend", perfTime, 1)
	ctr := telemetry.NewRegistry().Counter("bench.micro")
	putNs(m, "telemetry.counter_inc_ns", func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	})
}

func layerCore(m *metricSet) {
	// One broadcaster and one viewer on the packet-level cluster: simulated
	// datagrams forwarded per wall second.
	c := core.NewCluster(core.ClusterConfig{Seed: 1, Sites: 8})
	defer c.Close()
	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[2:])
	bc.Start()
	c.Run(time.Second)
	c.NewViewerAt(39.9, 116.4, bc.StreamID(0))
	c.Run(time.Second)
	fwd := func() (n uint64) {
		for _, nd := range c.Nodes {
			n += nd.Metrics().PacketsForwarded
		}
		return n
	}
	before := fwd()
	t0 := time.Now()
	c.Run(60 * time.Second)
	d := time.Since(t0)
	pk := fwd() - before
	if pk > 0 {
		m.put("core.cluster_sim_pkts_per_s", "1/s", float64(pk)/d.Seconds(), int(pk))
	}
}
