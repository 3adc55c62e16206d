package client

import (
	"testing"
	"time"

	"livenet/internal/gop"
	"livenet/internal/media"
	"livenet/internal/netem"
	"livenet/internal/node"
	"livenet/internal/sim"
	"livenet/internal/wire"
)

// rig is a two-node LiveNet slice: broadcaster -> producer(0) ->
// consumer(1) -> viewer.
type rig struct {
	loop     *sim.Loop
	net      *netem.Network
	producer *node.Node
	consumer *node.Node
	bc       *Broadcaster
	viewer   *Viewer
}

const (
	bcID     = 1000
	viewerID = 2000
	sidBase  = 100
)

func newRig(t *testing.T, seed int64, overlayLoss float64, lastMileLoss float64) *rig {
	t.Helper()
	loop := sim.NewLoop(seed)
	net := netem.New(loop, loop.RNG("netem"))
	r := &rig{loop: loop, net: net}

	lookup := func(sid uint32, consumer int, cb func([][]int, error)) {
		loop.AfterFunc(10*time.Millisecond, func() { cb([][]int{{0, 1}}, nil) })
	}
	mk := func(id int) *node.Node {
		n := node.New(node.Config{
			ID: id, Clock: loop, Net: net,
			PathLookup: lookup,
			LinkRTT:    func(int) time.Duration { return 20 * time.Millisecond },
			IsOverlay:  func(id int) bool { return id < bcID },
		})
		net.Handle(id, n.OnMessage)
		return n
	}
	r.producer = mk(0)
	r.consumer = mk(1)

	mkLink := func(a, b int, loss float64) {
		cfg := netem.LinkConfig{RTT: 20 * time.Millisecond, BandwidthBps: 100e6}
		if loss > 0 {
			cfg.Loss = func(time.Duration) float64 { return loss }
		}
		net.AddDuplex(a, b, cfg)
	}
	mkLink(bcID, 0, 0)
	mkLink(0, 1, overlayLoss)
	mkLink(1, viewerID, lastMileLoss)

	r.bc = NewBroadcaster(bcID, 0, sidBase, media.DefaultRenditions[:1], loop, net, loop.RNG("bc"))
	r.viewer = NewViewer(viewerID, r.bc.StreamID(0), 1, loop, net)
	net.Handle(viewerID, r.viewer.OnMessage)
	return r
}

func TestBroadcasterStreams(t *testing.T) {
	r := newRig(t, 1, 0, 0)
	var got int
	r.net.Handle(0, func(from int, data []byte) {
		if wire.Kind(data) == wire.MsgRTP {
			got++
		}
	})
	r.bc.Start()
	r.loop.RunUntil(2 * time.Second)
	r.bc.Stop()
	if got < 100 {
		t.Fatalf("producer received %d packets in 2s, want many", got)
	}
	n := got
	r.loop.RunUntil(4 * time.Second)
	if got > n+20 { // a few in-flight packets may still land
		t.Fatalf("broadcaster kept sending after Stop: %d -> %d", n, got)
	}
}

func TestBroadcasterSimulcastIDs(t *testing.T) {
	loop := sim.NewLoop(2)
	net := netem.New(loop, loop.RNG("n"))
	b := NewBroadcaster(bcID, 0, 500, media.DefaultRenditions, loop, net, loop.RNG("bc"))
	if b.StreamID(0) != 500 || b.StreamID(1) != 501 || b.StreamID(2) != 502 {
		t.Fatalf("stream IDs: %d %d %d", b.StreamID(0), b.StreamID(1), b.StreamID(2))
	}
	if b.AudioStreamID() != 503 {
		t.Fatalf("audio ID = %d", b.AudioStreamID())
	}
}

func TestViewerPlaybackCleanNetwork(t *testing.T) {
	r := newRig(t, 3, 0, 0)
	r.bc.Start()
	r.loop.AfterFunc(2*time.Second, func() {
		r.viewer.Attach()
		r.consumer.AttachViewer(viewerID, r.bc.StreamID(0))
	})
	r.loop.RunUntil(14 * time.Second)
	s := r.viewer.Stats()
	if !s.Started {
		t.Fatal("playback never started")
	}
	if s.StartupDelay > time.Second {
		t.Fatalf("startup delay = %v, want fast startup on a clean path", s.StartupDelay)
	}
	if s.Stalls != 0 {
		t.Fatalf("stalls = %d on a clean network", s.Stalls)
	}
	if s.FramesPlayed < 200 {
		t.Fatalf("frames played = %d, want most of ~300", s.FramesPlayed)
	}
	if len(s.StreamingDelay) == 0 {
		t.Fatal("no streaming-delay samples (delay ext lost?)")
	}
	med := s.MedianStreamingDelay()
	// encode 80ms + first mile 15ms + hops + 300ms buffer + 20ms decode.
	if med < 400*time.Millisecond || med > 900*time.Millisecond {
		t.Fatalf("median streaming delay = %v, want sub-second", med)
	}
}

// TestStallIsARunOfMissedFrames pins the playback model's burst rule: a
// stall is a run of consecutive missed frames longer than half the
// buffer, not however many scattered gaps one sweep happens to expire.
func TestStallIsARunOfMissedFrames(t *testing.T) {
	play := func(skip func(id uint32) bool) ViewStats {
		loop := sim.NewLoop(1)
		v := NewViewer(viewerID, sidBase, 1, loop, nil)
		for id := uint32(0); id < 100; id++ {
			if skip(id) {
				continue
			}
			if id >= 20 { // the first twenty arrive at once, as a prime does
				loop.RunUntil(time.Duration(id) * time.Second / 25)
			}
			typ := media.FrameP
			if id == 0 {
				typ = media.FrameI
			}
			v.onFrame(gop.AssembledFrame{Header: media.FrameHeader{FrameID: id, Type: typ}})
		}
		return v.Stats()
	}
	// Every other frame of twenty missing (a consumer shedding unreferenced
	// B frames), all found at one instant so that one sweep expires them.
	if s := play(func(id uint32) bool { return id < 20 && id%2 == 1 }); s.Stalls != 0 || s.FramesMissed != 10 {
		t.Fatalf("scattered gaps: stalls = %d, missed = %d; want 0, 10", s.Stalls, s.FramesMissed)
	}
	// Three in a row is 120 ms of frozen picture: under half the buffer.
	if s := play(func(id uint32) bool { return id >= 10 && id < 13 }); s.Stalls != 0 || s.FramesMissed != 3 {
		t.Fatalf("run of 3: stalls = %d, missed = %d; want 0, 3", s.Stalls, s.FramesMissed)
	}
	// Four in a row is 160 ms: a stall.
	if s := play(func(id uint32) bool { return id >= 10 && id < 14 }); s.Stalls != 1 || s.FramesMissed != 4 {
		t.Fatalf("run of 4: stalls = %d, missed = %d; want 1, 4", s.Stalls, s.FramesMissed)
	}
}

// TestCleanNetworkNeverStalls sweeps seeds: the frames a consumer sheds
// while the GoP prime crosses the viewer's pacer are missed content, and
// on no seed a stall.
func TestCleanNetworkNeverStalls(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := newRig(t, seed, 0, 0)
		r.bc.Start()
		r.loop.AfterFunc(2*time.Second, func() {
			r.viewer.Attach()
			r.consumer.AttachViewer(viewerID, r.bc.StreamID(0))
		})
		r.loop.RunUntil(14 * time.Second)
		if s := r.viewer.Stats(); s.Stalls != 0 || !s.Started {
			t.Errorf("seed %d: started = %v, stalls = %d on a clean network", seed, s.Started, s.Stalls)
		}
	}
}

func TestViewerStallsOnBandwidthOutage(t *testing.T) {
	// Random loss alone is absorbed by NACK recovery; what stalls real
	// viewers is a last-mile bandwidth collapse (the dips §5.2's frame
	// dropping targets). Throttle the access link below the stream rate
	// mid-view and verify the playback model registers stalls.
	run := func(throttle bool) int {
		r := newRig(t, 4, 0, 0)
		r.bc.Start()
		r.loop.AfterFunc(time.Second, func() {
			r.viewer.Attach()
			r.consumer.AttachViewer(viewerID, r.bc.StreamID(0))
		})
		if throttle {
			r.loop.AfterFunc(5*time.Second, func() {
				r.net.SetBandwidth(1, viewerID, 150_000) // far below stream rate
			})
			r.loop.AfterFunc(9*time.Second, func() {
				r.net.SetBandwidth(1, viewerID, 20e6)
			})
		}
		r.loop.RunUntil(20 * time.Second)
		return r.viewer.Stats().Stalls
	}
	clean := run(false)
	dirty := run(true)
	if dirty <= clean {
		t.Fatalf("stalls: clean=%d outage=%d; a bandwidth outage should stall", clean, dirty)
	}
}

func TestViewerNACKRecoversLastMileLoss(t *testing.T) {
	r := newRig(t, 5, 0, 0.05)
	r.bc.Start()
	r.loop.AfterFunc(time.Second, func() {
		r.viewer.Attach()
		r.consumer.AttachViewer(viewerID, r.bc.StreamID(0))
	})
	r.loop.RunUntil(15 * time.Second)
	s := r.viewer.Stats()
	if !s.Started {
		t.Fatal("never started")
	}
	// With NACK recovery at 5% loss, nearly all frames should complete.
	total := s.FramesPlayed + s.FramesMissed
	if total == 0 || float64(s.FramesPlayed)/float64(total) < 0.9 {
		t.Fatalf("played %d / %d; NACK recovery ineffective", s.FramesPlayed, total)
	}
	// The consumer must have seen and served retransmission requests.
	if r.consumer.Metrics().NACKsReceived == 0 {
		t.Fatal("consumer received no NACKs from the viewer")
	}
	if r.consumer.Metrics().Retransmits == 0 {
		t.Fatal("consumer never retransmitted to the viewer")
	}
}

func TestViewerOnStallCallback(t *testing.T) {
	r := newRig(t, 6, 0, 0.3)
	fired := 0
	r.viewer.OnStall = func(count int) { fired = count }
	r.bc.Start()
	r.loop.AfterFunc(time.Second, func() {
		r.viewer.Attach()
		r.consumer.AttachViewer(viewerID, r.bc.StreamID(0))
	})
	r.loop.RunUntil(20 * time.Second)
	if r.viewer.Stats().Stalls > 0 && fired == 0 {
		t.Fatal("stalls occurred but OnStall never fired")
	}
}

func TestFastStartupPredicate(t *testing.T) {
	s := ViewStats{Started: true, StartupDelay: 900 * time.Millisecond}
	if !s.FastStartup() {
		t.Fatal("900ms should be a fast startup")
	}
	s.StartupDelay = 1100 * time.Millisecond
	if s.FastStartup() {
		t.Fatal("1.1s is not fast startup")
	}
	if (ViewStats{}).FastStartup() {
		t.Fatal("unstarted view can't be fast startup")
	}
}

func TestMedianStreamingDelay(t *testing.T) {
	s := ViewStats{StreamingDelay: []time.Duration{5, 1, 3}}
	if s.MedianStreamingDelay() != 3 {
		t.Fatalf("median = %v", s.MedianStreamingDelay())
	}
	if (ViewStats{}).MedianStreamingDelay() != 0 {
		t.Fatal("empty median should be 0")
	}
}

func TestViewerCloseStopsTimers(t *testing.T) {
	r := newRig(t, 7, 0, 0)
	r.viewer.Attach()
	r.viewer.Close()
	// After close, the loop should quiesce: run a bounded horizon and
	// ensure the viewer recorded nothing further.
	r.loop.RunUntil(2 * time.Second)
	if r.viewer.Stats().Started {
		t.Fatal("closed viewer should not start playback")
	}
}

func TestViewerSendsFeedback(t *testing.T) {
	// The viewer's RR/REMB must reach the consumer and adapt its
	// per-client pacer (the consumer evaluates the viewer's bandwidth on
	// its behalf, §5.2).
	r := newRig(t, 9, 0, 0)
	r.bc.Start()
	r.loop.AfterFunc(time.Second, func() {
		r.viewer.Attach()
		r.consumer.AttachViewer(viewerID, r.bc.StreamID(0))
	})
	r.loop.RunUntil(8 * time.Second)
	rate, _, ok := r.consumer.LinkState(viewerID)
	if !ok {
		t.Fatal("no consumer->viewer link state")
	}
	// The pacer should have moved off its initial default toward the
	// viewer's REMB estimate (any adaptation counts).
	if rate == 8e6 {
		t.Fatalf("consumer pacer never adapted to viewer feedback: %v", rate)
	}
	if !r.viewer.Stats().Started {
		t.Fatal("playback broken by feedback loop")
	}
}
