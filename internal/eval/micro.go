package eval

import (
	"fmt"
	"time"

	"livenet/internal/brain"
	"livenet/internal/gop"
	"livenet/internal/graph"
	"livenet/internal/ksp"
	"livenet/internal/media"
	"livenet/internal/netem"
	"livenet/internal/node"
	"livenet/internal/rtp"
	"livenet/internal/runner"
	"livenet/internal/sim"
	"livenet/internal/stats"
	"livenet/internal/wire"
)

// --- Ablation: fast–slow path vs store-and-forward full-stack relay ---

// sfRelay is the strawman LiveNet replaces: a relay that runs the full
// application stack per hop — it reassembles each frame completely
// (store-and-forward) before forwarding, with per-hop reliability.
// This is the "running a whole application stack on each overlay node
// introduces unacceptable processing latency" baseline of §3.
type sfRelay struct {
	id        int
	next      int
	clock     sim.Clock
	net       node.Sender
	assembler *gop.Assembler
	// stash holds packets per frame until the frame completes.
	stash map[uint32][][]byte
	// procDelay models full-stack processing per frame.
	procDelay time.Duration
}

func newSFRelay(id, next int, clock sim.Clock, net node.Sender) *sfRelay {
	r := &sfRelay{
		id: id, next: next, clock: clock, net: net,
		assembler: gop.NewAssembler(64),
		stash:     make(map[uint32][][]byte),
		procDelay: 10 * time.Millisecond,
	}
	r.assembler.OnFrame = r.onFrame
	return r
}

func (r *sfRelay) OnMessage(from int, data []byte) {
	if wire.Kind(data) != wire.MsgRTP {
		return
	}
	_, rtpData, err := wire.UnframeRTP(data)
	if err != nil {
		return
	}
	var pkt rtp.Packet
	if err := pkt.Unmarshal(rtpData); err != nil {
		return
	}
	var h media.FrameHeader
	if err := h.Unmarshal(pkt.Payload); err != nil {
		return
	}
	r.stash[h.FrameID] = append(r.stash[h.FrameID], append([]byte(nil), data...))
	r.assembler.Push(&pkt)
}

// onFrame forwards the whole frame once complete, after processing delay.
func (r *sfRelay) onFrame(f gop.AssembledFrame) {
	packets := r.stash[f.Header.FrameID]
	delete(r.stash, f.Header.FrameID)
	r.clock.AfterFunc(r.procDelay, func() {
		now10us := uint32(r.clock.Now() / (10 * time.Microsecond))
		for _, p := range packets {
			rtp.PatchDelayExt(p[wire.RTPHeaderLen:], uint32(r.procDelay/(10*time.Microsecond)))
			wire.PatchRTPSendTime(p, now10us)
			r.net.Send(r.id, r.next, p)
		}
	})
}

// FastSlowResult compares per-frame delivery latency through a 2-relay
// chain for LiveNet's fast–slow path vs the store-and-forward stack.
// Delivery ratios matter as much as the latency: the SF chain has no
// recovery, so its latency sample is survivorship-biased — frames with
// any lost packet simply never arrive.
type FastSlowResult struct {
	Loss              float64
	FastSlowMedianMs  float64
	FastSlowP95Ms     float64
	FastSlowDelivered float64 // fraction of frames delivered
	StoreFwdMedianMs  float64
	StoreFwdP95Ms     float64
	StoreFwdDelivered float64
	FastSlowRecovered uint64
}

// AblationFastSlow measures frame latency broadcaster→viewer through
// producer→relay→consumer at the given overlay loss rate, for both
// forwarding architectures.
func AblationFastSlow(seed int64, loss float64) FastSlowResult {
	const totalFrames = 250
	measure := func(storeForward bool) (*stats.Sample, uint64) {
		loop := sim.NewLoop(seed)
		net := netem.New(loop, loop.RNG("netem"))
		hop := netem.LinkConfig{RTT: 30 * time.Millisecond, BandwidthBps: 100e6}
		if loss > 0 {
			hop.Loss = func(time.Duration) float64 { return loss }
		}
		const (
			bcID, prodID, relayID, consID, viewID = 1000, 0, 1, 2, 2000
			sid                                   = 7
		)
		net.AddDuplex(bcID, prodID, netem.LinkConfig{RTT: 10 * time.Millisecond, BandwidthBps: 100e6})
		net.AddDuplex(prodID, relayID, hop)
		net.AddDuplex(relayID, consID, hop)
		net.AddDuplex(consID, viewID, netem.LinkConfig{RTT: 10 * time.Millisecond, BandwidthBps: 100e6})

		mkNode := func(id int) *node.Node {
			n := node.New(node.Config{
				ID: id, Clock: loop, Net: net,
				PathLookup: func(_ uint32, _ int, cb func([][]int, error)) {
					loop.AfterFunc(5*time.Millisecond, func() { cb([][]int{{prodID, relayID, consID}}, nil) })
				},
				LinkRTT:   func(int) time.Duration { return 30 * time.Millisecond },
				IsOverlay: func(id int) bool { return id < 1000 },
			})
			net.Handle(id, n.OnMessage)
			return n
		}
		var prod, relay *node.Node
		if storeForward {
			// Producer and consumer are plain pipes too: the SF chain is
			// bc -> sf(prod) -> sf(relay) -> sf(cons) -> viewer.
			p := newSFRelay(prodID, relayID, loop, net)
			r := newSFRelay(relayID, consID, loop, net)
			c := newSFRelay(consID, viewID, loop, net)
			net.Handle(prodID, p.OnMessage)
			net.Handle(relayID, r.OnMessage)
			net.Handle(consID, c.OnMessage)
		} else {
			prod = mkNode(prodID)
			relay = mkNode(relayID)
			cons := mkNode(consID)
			cons.AttachViewer(viewID, sid)
		}

		// Viewer measures per-frame latency: capture PTS vs arrival.
		latency := &stats.Sample{}
		assembler := gop.NewAssembler(64)
		start := time.Duration(0)
		assembler.OnFrame = func(f gop.AssembledFrame) {
			// Frame f was captured at start + ID*40ms.
			capture := start + time.Duration(f.Header.FrameID)*40*time.Millisecond
			latency.Add(float64(loop.Now()-capture) / float64(time.Millisecond))
		}
		net.Handle(viewID, func(_ int, data []byte) {
			if wire.Kind(data) != wire.MsgRTP {
				return
			}
			_, rtpData, err := wire.UnframeRTP(data)
			if err != nil {
				return
			}
			var pkt rtp.Packet
			if err := pkt.Unmarshal(rtpData); err == nil {
				assembler.Push(&pkt)
			}
		})

		// Broadcast 10 s of 1.2 Mbps video.
		enc := media.NewEncoder(media.DefaultEncoderConfig(1_200_000), loop.RNG("enc"))
		pz := media.NewPacketizer(sid)
		frames := 0
		var tick func()
		tick = func() {
			if frames >= totalFrames {
				return
			}
			frames++
			now10us := uint32(loop.Now() / (10 * time.Microsecond))
			for _, pkt := range pz.Packetize(enc.NextFrame(), 100, nil) {
				net.Send(bcID, prodID, wire.FrameRTP(nil, now10us, pkt.Marshal(nil)))
			}
			loop.AfterFunc(enc.FrameInterval(), tick)
		}
		loop.AfterFunc(0, tick)
		loop.RunUntil(15 * time.Second)
		var recovered uint64
		if prod != nil {
			recovered = prod.Metrics().Retransmits + relay.Metrics().Retransmits
		}
		return latency, recovered
	}

	fs, rec := measure(false)
	sf, _ := measure(true)
	return FastSlowResult{
		Loss:              loss,
		FastSlowMedianMs:  fs.Median(),
		FastSlowP95Ms:     fs.Percentile(95),
		FastSlowDelivered: float64(fs.N()) / totalFrames,
		StoreFwdMedianMs:  sf.Median(),
		StoreFwdP95Ms:     sf.Percentile(95),
		StoreFwdDelivered: float64(sf.N()) / totalFrames,
		FastSlowRecovered: rec,
	}
}

// FastSlowTable renders the ablation across a loss sweep (loss points
// are independent simulations and run in parallel).
func FastSlowTable(seed int64, losses []float64) string {
	return NewSession(runner.Parallel()).FastSlowTable(seed, losses)
}

// --- Ablation: Eq. 2–3 load-aware weights vs pure-RTT routing ---

// AblationLinkWeights builds a hotspot scenario and compares the full
// Brain decision (Eq. 2-3 weights + the 80%-utilization validity filter,
// §4.2/§4.3) against pure-RTT shortest paths with no load awareness:
// the Brain routes around the hot relay; pure RTT rides into it.
func AblationLinkWeights(seed int64) string {
	const n = 16
	rng := sim.NewSource(seed).Stream("weights")
	g := graph.New(n)
	br := brain.New(brain.Config{N: n})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				rtt := time.Duration(20+rng.Intn(60)) * time.Millisecond
				g.SetLink(i, j, rtt, 0.0005, 0.1)
				br.ReportLink(i, j, rtt, 0.0005, 0.1)
			}
		}
	}
	// Node 1 is the natural relay for 0→2 (cheapest RTTs) but is hot.
	set := func(a, b int, rtt time.Duration) {
		g.SetLink(a, b, rtt, 0.0005, 0.1)
		br.ReportLink(a, b, rtt, 0.0005, 0.1)
	}
	set(0, 1, 10*time.Millisecond)
	set(1, 2, 10*time.Millisecond)
	set(0, 2, 90*time.Millisecond)
	g.SetNodeUtil(1, 0.95)
	br.OverloadAlarm(1, 0.95)
	br.RegisterStream(1, 0)

	// Effective delay penalizes hot nodes (queueing at 95% util).
	effDelay := func(nodes []int) float64 {
		total := 0.0
		for i := 0; i+1 < len(nodes); i++ {
			l := g.Link(nodes[i], nodes[i+1])
			total += float64(l.RTT) / float64(time.Millisecond) / 2
		}
		for _, nid := range nodes[1 : len(nodes)-1] {
			u := g.NodeUtil(nid)
			total += 150 * u * u * u // queueing blow-up on hot relays
		}
		return total
	}

	paths, _ := br.Lookup(1, 2)
	loaded := paths[0]
	// The ablated router: same topology, each edge weighs its RTT alone.
	var rtts []float64
	pureRTT := func(id int) ([]int, []float64) {
		nbrs := g.Neighbors(id)
		rtts = rtts[:0]
		for _, nb := range nbrs {
			rtts = append(rtts, float64(g.Link(id, nb).RTT)/float64(time.Millisecond))
		}
		return nbrs, rtts
	}
	plain, _ := new(ksp.Arena).ShortestPath(n, 0, 2, pureRTT)

	return fmt.Sprintf(`Ablation: Brain routing (Eq.2-3 weights + overload filter) vs pure-RTT (hot relay at 95%% util)
pure-RTT path:    %v  effective delay %.0f ms
load-aware path:  %v  effective delay %.0f ms
`, plain.Nodes, effDelay(plain.Nodes), loaded, effDelay(loaded))
}

// --- Macro ablations (GoP cache, prefetch, last resort, k) ---

// MacroAblations runs the LiveNet engine with each feature disabled and
// reports the deltas against the baseline. The seven configurations
// (including the k-sensitivity points) are independent runs and fan out
// in parallel; callers that already hold a Session should use its method
// instead so the baseline is shared with the main evaluation pair.
func MacroAblations(o Options) string {
	return NewSession(runner.Parallel()).MacroAblations(o)
}
