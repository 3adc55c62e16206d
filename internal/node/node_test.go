package node

import (
	"testing"
	"time"

	"livenet/internal/gop"
	"livenet/internal/media"
	"livenet/internal/netem"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/wire"
)

// harness wires nodes, a broadcaster and viewers over the emulator.
type harness struct {
	t     *testing.T
	loop  *sim.Loop
	net   *netem.Network
	nodes map[int]*Node
	// viewerRecv collects RTP packets delivered to viewer client IDs.
	viewerRecv map[int][]rtp.Packet
	// paths is the fake Brain: streamID -> candidate paths per consumer.
	paths map[uint32][][]int
}

const (
	broadcasterID = 1000
	viewerBase    = 2000
)

func newHarness(t *testing.T, seed int64, nodeIDs []int) *harness {
	t.Helper()
	return newTunedHarness(t, seed, nodeIDs, nil)
}

// newTunedHarness is newHarness with tune (if non-nil) adjusting every
// node's Config.
func newTunedHarness(t *testing.T, seed int64, nodeIDs []int, tune func(*Config)) *harness {
	t.Helper()
	loop := sim.NewLoop(seed)
	h := &harness{
		t:          t,
		loop:       loop,
		net:        netem.New(loop, loop.RNG("netem")),
		nodes:      make(map[int]*Node),
		viewerRecv: make(map[int][]rtp.Packet),
		paths:      make(map[uint32][][]int),
	}
	lookup := func(sid uint32, consumer int, cb func([][]int, error)) {
		// ~10 ms round trip to the Path Decision module.
		loop.AfterFunc(10*time.Millisecond, func() {
			cb(h.paths[sid], nil)
		})
	}
	for _, id := range nodeIDs {
		cfg := Config{
			ID:         id,
			Clock:      loop,
			Net:        h.net,
			PathLookup: lookup,
			LinkRTT:    func(to int) time.Duration { return 20 * time.Millisecond },
			IsOverlay:  func(id int) bool { return id < broadcasterID },
		}
		if tune != nil {
			tune(&cfg)
		}
		n := New(cfg)
		h.nodes[id] = n
		h.net.Handle(id, n.OnMessage)
	}
	return h
}

// link creates a duplex link with default parameters.
func (h *harness) link(a, b int, rtt time.Duration, loss float64) {
	cfg := netem.LinkConfig{RTT: rtt, BandwidthBps: 100e6}
	if loss > 0 {
		cfg.Loss = func(time.Duration) float64 { return loss }
	}
	h.net.AddDuplex(a, b, cfg)
}

// addViewer registers a viewer endpoint that records received RTP.
func (h *harness) addViewer(id int) {
	h.net.Handle(id, func(from int, data []byte) {
		if wire.Kind(data) != wire.MsgRTP {
			return
		}
		_, rtpData, err := wire.UnframeRTP(data)
		if err != nil {
			return
		}
		var p rtp.Packet
		if err := p.Unmarshal(rtpData); err != nil {
			return
		}
		p.Payload = append([]byte(nil), p.Payload...)
		h.viewerRecv[id] = append(h.viewerRecv[id], p)
	})
}

// broadcast streams n frames of the given stream from the broadcaster to
// the producer node, one frame per encoder interval.
func (h *harness) broadcast(sid uint32, producer int, frames int) {
	rng := h.loop.RNG("media")
	enc := media.NewEncoder(media.DefaultEncoderConfig(1_000_000), rng)
	pz := media.NewPacketizer(sid)
	sent := 0
	var tick func()
	tick = func() {
		if sent >= frames {
			return
		}
		sent++
		f := enc.NextFrame()
		now10us := uint32(h.loop.Now() / (10 * time.Microsecond))
		for _, pkt := range pz.Packetize(f, 200, nil) {
			frame := wire.FrameRTP(nil, now10us, pkt.Marshal(nil))
			h.net.Send(broadcasterID, producer, frame)
		}
		h.loop.AfterFunc(enc.FrameInterval(), tick)
	}
	h.loop.AfterFunc(0, tick)
}

func TestEndToEndTwoHopDelivery(t *testing.T) {
	h := newHarness(t, 1, []int{0, 1, 2})
	h.link(broadcasterID, 0, 20*time.Millisecond, 0)
	h.link(0, 1, 30*time.Millisecond, 0)
	h.link(1, 2, 30*time.Millisecond, 0)
	h.link(2, viewerBase, 20*time.Millisecond, 0)
	h.addViewer(viewerBase)

	const sid = 7
	h.paths[sid] = [][]int{{0, 1, 2}}
	h.broadcast(sid, 0, 100)

	var estPath []int
	h.nodes[2].OnEstablished = func(_ uint32, path []int, _ bool) { estPath = path }
	var firstPkt time.Duration
	h.nodes[2].OnFirstPacket = func(_ int, _ uint32, d time.Duration) { firstPkt = d }

	// Viewer arrives 1 s into the broadcast.
	h.loop.AfterFunc(time.Second, func() {
		if hit := h.nodes[2].AttachViewer(viewerBase, sid); hit {
			t.Error("first viewer should not be a local hit")
		}
	})
	h.loop.RunUntil(6 * time.Second)

	if len(estPath) != 3 || estPath[0] != 0 || estPath[2] != 2 {
		t.Fatalf("established path = %v, want [0 1 2]", estPath)
	}
	got := h.viewerRecv[viewerBase]
	if len(got) < 100 {
		t.Fatalf("viewer received only %d packets", len(got))
	}
	if firstPkt <= 0 || firstPkt > 500*time.Millisecond {
		t.Fatalf("first-packet delay = %v", firstPkt)
	}
	// The delay extension must have accumulated per-hop delay.
	sawExt := false
	for _, p := range got {
		if p.HasDelayExt {
			sawExt = true
			if p.HopCount < 2 {
				t.Fatalf("hop count = %d, want >=2 (producer->relay->consumer)", p.HopCount)
			}
			if p.DelayAccum10us <= 200 {
				t.Fatalf("delay ext did not accumulate: %d", p.DelayAccum10us)
			}
		}
	}
	if !sawExt {
		t.Fatal("no packet carried the delay extension")
	}
}

func TestLocalHitSecondViewer(t *testing.T) {
	h := newHarness(t, 2, []int{0, 1})
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(0, 1, 30*time.Millisecond, 0)
	h.link(1, viewerBase, 10*time.Millisecond, 0)
	h.link(1, viewerBase+1, 10*time.Millisecond, 0)
	h.addViewer(viewerBase)
	h.addViewer(viewerBase + 1)

	const sid = 9
	h.paths[sid] = [][]int{{0, 1}}
	h.broadcast(sid, 0, 200)

	h.loop.AfterFunc(time.Second, func() {
		h.nodes[1].AttachViewer(viewerBase, sid)
	})
	var wasHit bool
	var hitFirstPkt time.Duration
	h.loop.AfterFunc(4*time.Second, func() {
		h.nodes[1].OnFirstPacket = func(cid int, _ uint32, d time.Duration) {
			if cid == viewerBase+1 {
				hitFirstPkt = d
			}
		}
		wasHit = h.nodes[1].AttachViewer(viewerBase+1, sid)
	})
	h.loop.RunUntil(8 * time.Second)

	if !wasHit {
		t.Fatal("second viewer should be a local hit (stream flowing, GoP cached)")
	}
	m := h.nodes[1].Metrics()
	if m.LocalHits != 1 {
		t.Fatalf("LocalHits = %d", m.LocalHits)
	}
	if m.PathLookups != 1 {
		t.Fatalf("PathLookups = %d, want 1 (deduplicated)", m.PathLookups)
	}
	if len(h.viewerRecv[viewerBase+1]) == 0 {
		t.Fatal("local-hit viewer got no data")
	}
	if hitFirstPkt > 100*time.Millisecond {
		t.Fatalf("local hit first-packet delay = %v, want fast", hitFirstPkt)
	}
}

func TestLossRecoveryViaNACK(t *testing.T) {
	h := newHarness(t, 3, []int{0, 1})
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(0, 1, 30*time.Millisecond, 0.05) // 5% loss on the overlay hop
	h.link(1, viewerBase, 10*time.Millisecond, 0)
	h.addViewer(viewerBase)

	const sid = 11
	h.paths[sid] = [][]int{{0, 1}}
	h.broadcast(sid, 0, 250) // 10 s of video

	h.loop.AfterFunc(500*time.Millisecond, func() {
		h.nodes[1].AttachViewer(viewerBase, sid)
	})
	h.loop.RunUntil(12 * time.Second)

	m := h.nodes[1].Metrics()
	if m.NACKsSent == 0 {
		t.Fatal("lossy link should trigger NACKs")
	}
	if m.HolesRecovered == 0 {
		t.Fatal("no holes recovered despite retransmissions")
	}
	p := h.nodes[0].Metrics()
	if p.NACKsReceived == 0 || p.Retransmits == 0 {
		t.Fatalf("producer should have retransmitted: %+v", p)
	}
	// Recovery should dominate abandonment at 5% loss.
	if m.HolesAbandoned > m.HolesRecovered/4 {
		t.Fatalf("recovered=%d abandoned=%d; recovery should dominate",
			m.HolesRecovered, m.HolesAbandoned)
	}
}

func TestCacheHitSubscriptionAndLongChain(t *testing.T) {
	// Figure 5: E3 already subscribed via a long path; E4's requested
	// 2-hop path S->E3->E4 yields an actual 4-hop path via the cache hit.
	// Node IDs: S=0, A=1, E1=2, E3=3, E4=4.
	h := newHarness(t, 4, []int{0, 1, 2, 3, 4})
	for _, pair := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}} {
		h.link(pair[0], pair[1], 20*time.Millisecond, 0)
	}
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(3, viewerBase, 10*time.Millisecond, 0)
	h.link(4, viewerBase+1, 10*time.Millisecond, 0)
	h.addViewer(viewerBase)
	h.addViewer(viewerBase + 1)

	const sid = 13
	h.broadcast(sid, 0, 300)

	// E3 subscribes via the long path S->A->E1->E3.
	h.paths[sid] = [][]int{{0, 1, 2, 3}}
	h.loop.AfterFunc(time.Second, func() {
		h.nodes[3].AttachViewer(viewerBase, sid)
	})

	// Later, E4 is told the short path S->E3->E4.
	var e4Path []int
	h.loop.AfterFunc(4*time.Second, func() {
		h.paths[sid] = [][]int{{0, 3, 4}}
		h.nodes[4].OnEstablished = func(_ uint32, path []int, _ bool) { e4Path = path }
		h.nodes[4].AttachViewer(viewerBase+1, sid)
	})
	h.loop.RunUntil(10 * time.Second)

	want := []int{0, 1, 2, 3, 4} // long chain!
	if len(e4Path) != len(want) {
		t.Fatalf("E4 actual path = %v, want %v (long chain via cache hit)", e4Path, want)
	}
	for i := range want {
		if e4Path[i] != want[i] {
			t.Fatalf("E4 actual path = %v, want %v", e4Path, want)
		}
	}
	if h.nodes[3].Metrics().CacheHitPrimes == 0 {
		t.Fatal("E3 should have served the subscription from its cache")
	}
	if len(h.viewerRecv[viewerBase+1]) == 0 {
		t.Fatal("E4's viewer got no data")
	}
}

func TestUnsubscribeTeardown(t *testing.T) {
	h := newHarness(t, 5, []int{0, 1, 2})
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(0, 1, 20*time.Millisecond, 0)
	h.link(1, 2, 20*time.Millisecond, 0)
	h.link(2, viewerBase, 10*time.Millisecond, 0)
	h.addViewer(viewerBase)

	const sid = 15
	h.paths[sid] = [][]int{{0, 1, 2}}
	h.broadcast(sid, 0, 500)

	h.loop.AfterFunc(time.Second, func() {
		h.nodes[2].AttachViewer(viewerBase, sid)
	})
	h.loop.AfterFunc(5*time.Second, func() {
		h.nodes[2].DetachViewer(viewerBase, sid)
	})
	h.loop.RunUntil(8 * time.Second)

	if h.nodes[2].HasStream(sid) {
		t.Fatal("consumer should have torn down the stream after last viewer left")
	}
	if h.nodes[1].HasStream(sid) {
		t.Fatal("relay should have torn down after downstream unsubscribed")
	}
	if !h.nodes[0].HasStream(sid) {
		t.Fatal("producer keeps the stream while the broadcast continues")
	}
}

func TestProducerAdoptionAfterParkedSubscription(t *testing.T) {
	// Viewer subscribes before the broadcast starts; data must flow once
	// the broadcaster begins.
	h := newHarness(t, 6, []int{0, 1})
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(0, 1, 20*time.Millisecond, 0)
	h.link(1, viewerBase, 10*time.Millisecond, 0)
	h.addViewer(viewerBase)

	const sid = 17
	h.paths[sid] = [][]int{{0, 1}}
	h.loop.AfterFunc(0, func() {
		h.nodes[1].AttachViewer(viewerBase, sid)
	})
	// Broadcast starts 2 s later.
	h.loop.AfterFunc(2*time.Second, func() { h.broadcast(sid, 0, 150) })
	h.loop.RunUntil(10 * time.Second)

	if len(h.viewerRecv[viewerBase]) == 0 {
		t.Fatal("viewer parked before broadcast start received nothing")
	}
	if !h.nodes[1].HasStream(sid) {
		t.Fatal("consumer never established")
	}
}

func TestProactiveFrameDropping(t *testing.T) {
	h := newHarness(t, 7, []int{0, 1})
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(0, 1, 20*time.Millisecond, 0)
	h.link(1, viewerBase, 10*time.Millisecond, 0)
	h.addViewer(viewerBase)

	const sid = 19
	h.paths[sid] = [][]int{{0, 1}}
	h.broadcast(sid, 0, 300)

	h.loop.AfterFunc(500*time.Millisecond, func() {
		h.nodes[1].AttachViewer(viewerBase, sid)
	})
	// The viewer's link goes bad: its REMB caps the client pacer far below
	// the stream rate, so the client queue builds and frames are dropped.
	h.loop.AfterFunc(2*time.Second, func() {
		remb := rtp.MarshalREMB(&rtp.REMB{SenderSSRC: viewerBase, BitrateBps: 150_000, SSRCs: []uint32{sid}}, nil)
		h.net.Send(viewerBase, 1, wire.FrameRTCP(nil, remb))
	})
	h.loop.RunUntil(12 * time.Second)

	m := h.nodes[1].Metrics()
	if m.DroppedBFrames == 0 && m.DroppedPFrames == 0 && m.DroppedGoPs == 0 {
		t.Fatalf("no proactive frame dropping under a constrained client: %+v", m)
	}
}

func TestPathSwitchOnStalls(t *testing.T) {
	h := newHarness(t, 8, []int{0, 1, 2})
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(0, 1, 20*time.Millisecond, 0)
	h.link(1, 2, 20*time.Millisecond, 0)
	h.link(0, 2, 20*time.Millisecond, 0)
	h.link(2, viewerBase, 10*time.Millisecond, 0)
	h.addViewer(viewerBase)

	const sid = 21
	// Best path via relay 1, backup is the direct path.
	h.paths[sid] = [][]int{{0, 1, 2}, {0, 2}}
	h.broadcast(sid, 0, 400)

	h.loop.AfterFunc(time.Second, func() {
		h.nodes[2].AttachViewer(viewerBase, sid)
	})
	var newPath []int
	h.loop.AfterFunc(5*time.Second, func() {
		h.nodes[2].OnEstablished = func(_ uint32, path []int, _ bool) { newPath = path }
		// Client reports repeated stalls: threshold is 2.
		h.nodes[2].ReportClientQuality(viewerBase, sid, 3)
	})
	h.loop.RunUntil(12 * time.Second)

	if h.nodes[2].Metrics().PathSwitches != 1 {
		t.Fatalf("PathSwitches = %d", h.nodes[2].Metrics().PathSwitches)
	}
	if len(newPath) != 2 || newPath[0] != 0 || newPath[1] != 2 {
		t.Fatalf("switched path = %v, want the [0 2] backup", newPath)
	}
	if len(h.viewerRecv[viewerBase]) == 0 {
		t.Fatal("viewer lost data across the switch")
	}
}

func TestSeamlessStreamSwitch(t *testing.T) {
	h := newHarness(t, 9, []int{0, 1})
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(broadcasterID+1, 0, 10*time.Millisecond, 0)
	h.link(0, 1, 20*time.Millisecond, 0)
	h.link(1, viewerBase, 10*time.Millisecond, 0)
	h.addViewer(viewerBase)

	const oldSID, newSID = 23, 24
	h.paths[oldSID] = [][]int{{0, 1}}
	h.paths[newSID] = [][]int{{0, 1}}
	h.broadcast(oldSID, 0, 400)

	h.loop.AfterFunc(500*time.Millisecond, func() {
		h.nodes[1].AttachViewer(viewerBase, oldSID)
	})
	// Co-streaming begins: new stream starts; consumer switches the
	// client once a complete GoP of the new stream is cached.
	switched := false
	h.loop.AfterFunc(3*time.Second, func() {
		// New stream from a second broadcaster.
		rng := h.loop.RNG("media2")
		enc := media.NewEncoder(media.DefaultEncoderConfig(800_000), rng)
		pz := media.NewPacketizer(newSID)
		sent := 0
		var tick func()
		tick = func() {
			if sent >= 300 {
				return
			}
			sent++
			now10us := uint32(h.loop.Now() / (10 * time.Microsecond))
			for _, pkt := range pz.Packetize(enc.NextFrame(), 100, nil) {
				h.net.Send(broadcasterID+1, 0, wire.FrameRTP(nil, now10us, pkt.Marshal(nil)))
			}
			h.loop.AfterFunc(enc.FrameInterval(), tick)
		}
		tick()
		done := h.nodes[1].SwitchClientStream(viewerBase, oldSID, newSID)
		go func() { <-done }()
		h.loop.AfterFunc(6*time.Second, func() {
			select {
			case <-done:
				switched = true
			default:
			}
		})
	})
	h.loop.RunUntil(12 * time.Second)

	if !switched {
		t.Fatal("stream switch never completed")
	}
	// The viewer must have received packets of the new stream.
	sawNew := false
	for _, p := range h.viewerRecv[viewerBase] {
		if p.SSRC == newSID {
			sawNew = true
			break
		}
	}
	if !sawNew {
		t.Fatal("viewer never received the co-stream")
	}
	if h.nodes[1].HasStream(oldSID) {
		t.Fatal("old stream should be torn down after the switch")
	}
}

func TestGoPCachePopulated(t *testing.T) {
	h := newHarness(t, 10, []int{0})
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	const sid = 25
	h.broadcast(sid, 0, 120) // >2 GoPs
	h.loop.RunUntil(6 * time.Second)

	// Reach into the producer's stream state via a subscription probe:
	// HasStream + a cache-primed subscription implies the cache works.
	if !h.nodes[0].HasStream(sid) {
		t.Fatal("producer has no stream state")
	}
	// Use the package-level view for a direct check.
	n := h.nodes[0]
	n.mu.Lock()
	s := n.streams[sid]
	hasGoP := s != nil && s.cache.HasRecentGoP()
	var cacheLen int
	if s != nil {
		cacheLen = len(s.cache.StartupPackets())
	}
	n.mu.Unlock()
	if !hasGoP {
		t.Fatal("producer GoP cache empty after 120 frames")
	}
	if cacheLen == 0 {
		t.Fatal("startup packets empty")
	}
	_ = gop.CachedPacket{} // keep import for clarity of what's cached
}

// mediaEncoder/mediaPacketizer are small helpers for tests that need a
// second stream source.
func mediaEncoder(rng *sim.Rand) *media.Encoder {
	return media.NewEncoder(media.DefaultEncoderConfig(1_000_000), rng)
}

func mediaPacketizer(sid uint32) *media.Packetizer { return media.NewPacketizer(sid) }
