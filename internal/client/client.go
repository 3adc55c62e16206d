// Package client implements the end-user endpoints: the Broadcaster that
// uploads simulcast renditions to its producer node (over WebRTC in the
// paper; over the overlay wire protocol here), and the Viewer with the
// playback model that produces the paper's QoE metrics — startup delay,
// stall count, and streaming delay measured via the RTP delay header
// extension (§6.1).
package client

import (
	"slices"
	"sync"
	"time"

	"livenet/internal/gcc"
	"livenet/internal/gop"
	"livenet/internal/media"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/wire"
)

// Sender matches node.Sender (kept local to avoid the dependency).
type Sender interface {
	Send(from, to int, data []byte) error
}

// Broadcaster uploads one or more simulcast renditions to a producer node.
type Broadcaster struct {
	ID       int
	Producer int
	Clock    sim.Clock
	Net      Sender
	// EncodeDelay is the encoding+capture latency seeded into the delay
	// extension of I-frame packets (default 80 ms; §2.3 footnote says
	// ~150 ms covers encoding plus first-mile).
	EncodeDelay time.Duration
	// FirstMileRTT is added (halved) to the seed, per §6.1.
	FirstMileRTT time.Duration

	sim      *media.Simulcast
	audio    media.AudioSource
	audioPkt *media.Packetizer
	pktizers []*media.Packetizer
	running  bool
	stopped  bool
	mu       sync.Mutex

	packetsSent *telemetry.Counter
}

// NewBroadcaster creates a broadcaster for the given renditions. Each
// rendition becomes its own stream: streamIDs[i] = baseStreamID + i
// (each bitrate version has a unique stream ID, §5.2).
func NewBroadcaster(id, producer int, baseStreamID uint32, rends []media.Rendition, clock sim.Clock, net Sender, rng *sim.Rand) *Broadcaster {
	b := &Broadcaster{
		ID:           id,
		Producer:     producer,
		Clock:        clock,
		Net:          net,
		EncodeDelay:  80 * time.Millisecond,
		FirstMileRTT: 30 * time.Millisecond,
		sim:          media.NewSimulcast(rends, rng),
		audioPkt:     media.NewPacketizer(baseStreamID + uint32(len(rends))),
	}
	for i := range rends {
		b.pktizers = append(b.pktizers, media.NewPacketizer(baseStreamID+uint32(i)))
	}
	b.Instrument(nil)
	return b
}

// Instrument registers the broadcaster's client.* counters in r (shared
// across clients — the registry holds fleet totals). Call before Start;
// nil keeps private unregistered instruments.
func (b *Broadcaster) Instrument(r *telemetry.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.packetsSent = r.Counter("client.packets_sent")
}

// StreamID returns the stream ID of rendition i.
func (b *Broadcaster) StreamID(i int) uint32 { return b.pktizers[i].SSRC }

// AudioStreamID returns the audio stream's ID.
func (b *Broadcaster) AudioStreamID() uint32 { return b.audioPkt.SSRC }

// Start begins uploading frames until Stop.
func (b *Broadcaster) Start() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.running {
		return
	}
	b.running = true
	b.stopped = false
	b.tickVideo()
	b.tickAudio()
}

// Stop ends the upload.
func (b *Broadcaster) Stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stopped = true
	b.running = false
}

func (b *Broadcaster) seed10us() uint32 {
	return uint32((b.EncodeDelay + b.FirstMileRTT/2) / (10 * time.Microsecond))
}

func (b *Broadcaster) tickVideo() {
	b.Clock.AfterFunc(b.sim.Encoders[0].FrameInterval(), func() {
		b.mu.Lock()
		if b.stopped {
			b.mu.Unlock()
			return
		}
		frames := b.sim.NextFrames()
		now10us := uint32(b.Clock.Now() / (10 * time.Microsecond))
		var sends [][]byte
		for i, f := range frames {
			for _, pkt := range b.pktizers[i].Packetize(f, b.seed10us(), nil) {
				sends = append(sends, wire.FrameRTP(nil, now10us, pkt.Marshal(nil)))
			}
		}
		b.mu.Unlock()
		b.packetsSent.Add(uint64(len(sends)))
		for _, s := range sends {
			b.Net.Send(b.ID, b.Producer, s)
		}
		b.tickVideo()
	})
}

func (b *Broadcaster) tickAudio() {
	b.Clock.AfterFunc(media.AudioFrameInterval, func() {
		b.mu.Lock()
		if b.stopped {
			b.mu.Unlock()
			return
		}
		f := b.audio.NextFrame()
		now10us := uint32(b.Clock.Now() / (10 * time.Microsecond))
		var sends [][]byte
		for _, pkt := range b.audioPkt.Packetize(f, b.seed10us(), nil) {
			sends = append(sends, wire.FrameRTP(nil, now10us, pkt.Marshal(nil)))
		}
		b.mu.Unlock()
		b.packetsSent.Add(uint64(len(sends)))
		for _, s := range sends {
			b.Net.Send(b.ID, b.Producer, s)
		}
		b.tickAudio()
	})
}

// ViewStats are the per-view QoE metrics logged at clients (§6.1).
type ViewStats struct {
	Started      bool
	StartupDelay time.Duration
	Stalls       int
	FramesPlayed int
	FramesMissed int
	// StreamingDelay samples: broadcaster capture → display, from the RTP
	// delay extension plus client buffering and decode.
	StreamingDelay []time.Duration
}

// FastStartup reports whether playback began within 1 second (§2.1).
func (s ViewStats) FastStartup() bool {
	return s.Started && s.StartupDelay <= time.Second
}

// MedianStreamingDelay returns the median sample (0 if none).
func (s ViewStats) MedianStreamingDelay() time.Duration {
	if len(s.StreamingDelay) == 0 {
		return 0
	}
	// Insertion copy; samples are few per view.
	c := append([]time.Duration(nil), s.StreamingDelay...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[len(c)/2]
}

// Viewer receives a stream from its consumer node and runs the playback
// model: a fixed jitter buffer (300 ms in Taobao Live), startup on the
// first buffered I frame, and stall accounting when a frame misses its
// play deadline.
type Viewer struct {
	ID       int
	StreamID uint32
	Consumer int
	Clock    sim.Clock
	Net      Sender
	// Buffer is the playback buffer length (default 300 ms, §6.2).
	Buffer time.Duration
	// DecodeDelay is the client decode latency (default 20 ms).
	DecodeDelay time.Duration
	// OnStall fires on each stall with the running count — the node layer
	// uses it for quality-triggered path switching.
	OnStall func(count int)

	mu        sync.Mutex
	assembler *gop.Assembler
	attach    time.Duration

	// Receiver-side GCC toward the consumer (the client half of the
	// WebRTC loop): delay-gradient estimation feeds an AIMD estimate that
	// is REMBed upstream so the consumer's per-client pacer adapts.
	ia    gcc.InterArrival
	trend *gcc.TrendlineEstimator
	aimd  *gcc.AIMD
	meter *gcc.RateMeter

	received   uint64
	lastRRHigh uint16
	lastRRRecv uint64
	lastReport time.Duration

	started   bool
	playStart time.Duration // wall time when playback began
	basePTS   uint32        // RTP timestamp of the first played frame
	timeShift time.Duration // accumulated rebuffer shifts
	lastStall time.Duration
	lastFrame uint32 // highest completed frame ID
	// gaps tracks frame IDs skipped in completion order with the time the
	// gap appeared; frames may complete out of order (loss recovery), so
	// a gap only counts as missed content if it never fills.
	gaps    map[uint32]time.Duration
	expired []uint32 // scratch: the gaps one sweep gives up on

	// Slow-path-style loss recovery toward the consumer node.
	haveHighest bool
	highest     uint16
	holes       map[uint16]*viewerHole
	stats       ViewStats
	closed      bool

	tel viewerInstruments
}

// viewerInstruments are the viewer's registered telemetry handles. The
// registry is shared by every client, so the counters are fleet totals;
// ViewStats stays the per-view QoE record.
type viewerInstruments struct {
	packetsReceived *telemetry.Counter
	framesPlayed    *telemetry.Counter
	framesMissed    *telemetry.Counter
	stalls          *telemetry.Counter
	nacksSent       *telemetry.Counter
	startupMs       *telemetry.Histogram
}

func newViewerInstruments(r *telemetry.Registry) viewerInstruments {
	return viewerInstruments{
		packetsReceived: r.Counter("client.packets_received"),
		framesPlayed:    r.Counter("client.frames_played"),
		framesMissed:    r.Counter("client.frames_missed"),
		stalls:          r.Counter("client.stalls"),
		nacksSent:       r.Counter("client.nacks_sent"),
		startupMs:       r.Histogram("client.startup_ms"),
	}
}

type viewerHole struct {
	retries  int
	lastNACK time.Duration
}

// NewViewer creates a viewer; call Attach after wiring it to the network.
func NewViewer(id int, sid uint32, consumer int, clock sim.Clock, net Sender) *Viewer {
	v := &Viewer{
		ID:          id,
		StreamID:    sid,
		Consumer:    consumer,
		Clock:       clock,
		Net:         net,
		Buffer:      300 * time.Millisecond,
		DecodeDelay: 20 * time.Millisecond,
		assembler:   gop.NewAssembler(64),
		holes:       make(map[uint16]*viewerHole),
		gaps:        make(map[uint32]time.Duration),
		trend:       gcc.NewTrendlineEstimator(),
		aimd:        gcc.NewAIMD(6e6, 100e3, 50e6),
		meter:       gcc.NewRateMeter(0),
	}
	v.assembler.OnFrame = v.onFrame
	v.tel = newViewerInstruments(nil)
	return v
}

// Instrument registers the viewer's client.* metrics in r (shared across
// clients — the registry holds fleet totals, ViewStats the per-view QoE).
// Call before Attach; nil keeps private unregistered instruments.
func (v *Viewer) Instrument(r *telemetry.Registry) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tel = newViewerInstruments(r)
}

// Attach marks the viewing request time and starts the NACK timer.
func (v *Viewer) Attach() {
	v.mu.Lock()
	v.attach = v.Clock.Now()
	v.mu.Unlock()
	v.scanLoop()
}

// Close stops the viewer's timers.
func (v *Viewer) Close() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.closed = true
}

// RateEstimate returns the viewer's current delay-based bandwidth
// estimate in bps (what it REMBs to its consumer).
func (v *Viewer) RateEstimate() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.aimd.Rate()
}

// Stats returns a snapshot of the view's QoE metrics.
func (v *Viewer) Stats() ViewStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := v.stats
	s.StreamingDelay = append([]time.Duration(nil), v.stats.StreamingDelay...)
	return s
}

// OnMessage is the network delivery entry point.
func (v *Viewer) OnMessage(from int, data []byte) {
	if wire.Kind(data) != wire.MsgRTP {
		return
	}
	sendTime10us, rtpData, err := wire.UnframeRTP(data)
	if err != nil {
		return
	}
	var pkt rtp.Packet
	if err := pkt.Unmarshal(rtpData); err != nil {
		return
	}
	if pkt.SSRC != v.StreamID {
		// Seamless switching delivers the co-stream on the same link;
		// adopt it (the consumer switched on our behalf, §5.2).
		v.mu.Lock()
		v.StreamID = pkt.SSRC
		v.mu.Unlock()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.closed {
		return
	}
	// Streaming delay sample from the delay extension: accumulated
	// upstream delay + our buffer + decode.
	if pkt.HasDelayExt {
		upstream := time.Duration(pkt.DelayAccum10us) * 10 * time.Microsecond
		sample := upstream + v.Buffer + v.DecodeDelay
		v.stats.StreamingDelay = append(v.stats.StreamingDelay, sample)
	}
	// Receiver-side GCC sample.
	now := v.Clock.Now()
	v.meter.Add(now, len(rtpData))
	v.received++
	v.tel.packetsReceived.Inc()
	if sample, ok := v.ia.Add(time.Duration(sendTime10us)*10*time.Microsecond, now); ok {
		sig := v.trend.Update(sample, now)
		v.aimd.Update(sig, v.meter.BitrateBps(now), now)
	}
	// Loss tracking for NACKs.
	seq := pkt.SequenceNumber
	if !v.haveHighest {
		v.haveHighest = true
		v.highest = seq
	} else if rtp.SeqLess(v.highest, seq) {
		if gap := rtp.SeqDiff(v.highest, seq); gap <= 256 {
			for q := v.highest + 1; q != seq; q++ {
				v.holes[q] = &viewerHole{}
			}
		}
		v.highest = seq
	} else {
		delete(v.holes, seq)
	}
	v.assembler.Push(&pkt)
}

// onFrame feeds the playback model (called by the assembler with v.mu
// held, since Push happens under the lock).
func (v *Viewer) onFrame(f gop.AssembledFrame) {
	now := v.Clock.Now()
	if !v.started {
		// Start playback at the first complete I frame: the buffer target
		// then delays the play deadline of every frame.
		if f.Header.Type != media.FrameI {
			v.stats.FramesMissed++
			v.tel.framesMissed.Inc()
			return
		}
		v.started = true
		v.playStart = now
		v.basePTS = f.Header.FrameID
		v.lastFrame = f.Header.FrameID
		v.stats.Started = true
		v.stats.StartupDelay = now - v.attach
		v.stats.FramesPlayed++
		v.tel.framesPlayed.Inc()
		v.tel.startupMs.Observe(int64(v.stats.StartupDelay / time.Millisecond))
		return
	}
	// Content-gap tracking: frames may complete out of order while loss
	// recovery fills holes, so skipped IDs are only provisional gaps. A
	// gap that persists past the recovery horizon is missed content; a
	// run of consecutive missed frames longer than half the buffer is a
	// stall (the picture froze). Frames missing here and there — the
	// unreferenced B frames a consumer sheds while a GoP prime crosses the
	// client pacer — lower the frame rate and stop nothing, however many
	// of them one sweep happens to expire.
	if _, late := v.gaps[f.Header.FrameID]; late {
		delete(v.gaps, f.Header.FrameID)
	} else if f.Header.FrameID > v.lastFrame+1 {
		if n := f.Header.FrameID - v.lastFrame - 1; n <= 512 {
			for q := v.lastFrame + 1; q < f.Header.FrameID; q++ {
				v.gaps[q] = now
			}
		}
	}
	if f.Header.FrameID > v.lastFrame {
		v.lastFrame = f.Header.FrameID
	}
	const recoveryHorizon = 1500 * time.Millisecond
	v.expired = v.expired[:0]
	for id, seen := range v.gaps {
		if now-seen > recoveryHorizon {
			delete(v.gaps, id)
			v.expired = append(v.expired, id)
		}
	}
	if abandoned := len(v.expired); abandoned > 0 {
		v.stats.FramesMissed += abandoned
		v.tel.framesMissed.Add(uint64(abandoned))
		// The IDs one completion skipped share a gap time, so a run
		// expires in one sweep.
		slices.Sort(v.expired)
		run, longest := 1, 1
		for i := 1; i < abandoned; i++ {
			if v.expired[i] != v.expired[i-1]+1 {
				run = 0
			}
			run++
			longest = max(longest, run)
		}
		const frameInterval = time.Second / 25
		if time.Duration(longest)*frameInterval > v.Buffer/2 {
			v.noteStall(now)
		}
	}
	// Deadline for this frame: playStart + (frame offset) + buffer + shifts.
	// Frame offset approximated by frame ID spacing at 25 fps.
	offset := time.Duration(int64(f.Header.FrameID-v.basePTS)) * (time.Second / 25)
	deadline := v.playStart + offset + v.Buffer + v.timeShift
	if now > deadline {
		// Missed deadline: stall, then shift the timeline by the lateness
		// plus a rebuffer allowance.
		v.noteStall(now)
		v.timeShift += (now - deadline) + v.Buffer/2
	}
	v.stats.FramesPlayed++
	v.tel.framesPlayed.Inc()
}

// noteStall counts distinct stall events (bursts of late/missing frames
// within a second are one stall) and notifies OnStall.
func (v *Viewer) noteStall(now time.Duration) {
	if now-v.lastStall <= time.Second && v.lastStall != 0 {
		return
	}
	v.stats.Stalls++
	v.tel.stalls.Inc()
	v.lastStall = now
	if v.OnStall != nil {
		cb := v.OnStall
		cnt := v.stats.Stalls
		v.Clock.AfterFunc(0, func() { cb(cnt) })
	}
}

// scanLoop NACKs holes every 50 ms, like the node slow path (clients run
// WebRTC's equivalent; this keeps last-mile loss from becoming stalls).
func (v *Viewer) scanLoop() {
	v.Clock.AfterFunc(50*time.Millisecond, func() {
		v.mu.Lock()
		if v.closed {
			v.mu.Unlock()
			return
		}
		now := v.Clock.Now()
		var lost []uint16

		for seq, h := range v.holes {
			if h.retries >= 5 {
				delete(v.holes, seq)
				continue
			}
			if now-h.lastNACK >= 50*time.Millisecond {
				lost = append(lost, seq)
				h.retries++
				h.lastNACK = now
			}
		}
		var msg []byte
		if len(lost) > 0 {
			slices.Sort(lost) // holes is a map; canonicalize the NACK order
			nack := rtp.MarshalNACK(&rtp.NACK{SenderSSRC: uint32(v.ID), MediaSSRC: v.StreamID, Lost: lost}, nil)
			msg = wire.FrameRTCP(nil, nack)
			v.tel.nacksSent.Inc()
		}
		// Periodic RR + REMB so the consumer's per-client pacer tracks
		// the access link (§5.2: the consumer evaluates each viewer's
		// available bandwidth on its behalf).
		var feedback []byte
		if now-v.lastReport >= 500*time.Millisecond && v.haveHighest {
			v.lastReport = now
			expected := uint64(v.highest - v.lastRRHigh)
			got := v.received - v.lastRRRecv
			var fraction float64
			if expected > 0 && got < expected {
				fraction = float64(expected-got) / float64(expected)
			}
			v.lastRRHigh = v.highest
			v.lastRRRecv = v.received
			rr := rtp.MarshalRR(&rtp.ReceiverReport{
				SenderSSRC: uint32(v.ID), MediaSSRC: v.StreamID,
				FractionLost: uint8(fraction * 256), HighestSeq: uint32(v.highest),
			}, nil)
			remb := rtp.MarshalREMB(&rtp.REMB{
				SenderSSRC: uint32(v.ID), BitrateBps: uint64(v.aimd.Rate()),
				SSRCs: []uint32{v.StreamID},
			}, nil)
			feedback = append(append(make([]byte, 0, 1+len(rr)+len(remb)), wire.MsgRTCP), rr...)
			feedback = append(feedback, remb...)
		}
		v.mu.Unlock()
		if msg != nil {
			v.Net.Send(v.ID, v.Consumer, msg)
		}
		if feedback != nil {
			v.Net.Send(v.ID, v.Consumer, feedback)
		}
		v.scanLoop()
	})
}
