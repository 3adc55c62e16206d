// Package node implements the LiveNet overlay node: the fast–slow path
// transmission architecture of §5. A node keeps a Stream FIB mapping each
// stream to its downstream subscribers; on receiving an RTP packet the
// fast path immediately forwards it to all subscribers (through a paced
// sender, with no loss detection or ordering), while a copy enters the
// slow path for congestion control (GCC), per-hop NACK/retransmission
// loss recovery, frame assembly and GoP caching.
//
// The same node code serves all three roles of the flat CDN — producer,
// relay, consumer — exactly as the paper's role-flexible design requires:
// a node becomes a producer when a broadcaster uploads to it, a relay
// when other nodes subscribe through it, and a consumer when viewers
// attach to it.
package node

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"livenet/internal/gcc"
	"livenet/internal/gop"
	"livenet/internal/media"
	"livenet/internal/pktbuf"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/wire"
)

// Sender abstracts the transport (the in-process emulator or real UDP).
// The transport must not retain data past the call (the node reuses the
// buffers it sends from).
type Sender interface {
	Send(from, to int, data []byte) error
}

// VecSender is implemented by transports that accept one datagram as a
// header + payload pair (scatter-gather). The node's zero-copy fan-out
// emits a small per-link header plus a payload tail shared across the
// whole FIB fan-out; a VecSender sends both without the node gluing them
// together first. Semantically SendVec(f,t,h,p) == Send(f,t,h++p).
// The transport must not retain either slice past the call.
type VecSender interface {
	SendVec(from, to int, hdr, payload []byte) error
}

// BatchSender is implemented by transports that can submit a whole batch
// of datagrams to one destination in a single call (udprun's sendmmsg
// path). Vecs must be sent in order; the slices must not be retained.
type BatchSender interface {
	SendBatch(from, to int, vecs []wire.Vec) error
}

// PathLookupFunc asks the Streaming Brain's Path Decision module for
// candidate paths for a stream, consumer pair. Paths are node-ID
// sequences from producer to consumer (inclusive). The callback may fire
// asynchronously (it models the RTT to the Path Decision replica).
type PathLookupFunc func(streamID uint32, consumer int, cb func(paths [][]int, err error))

// Config configures a Node.
type Config struct {
	ID    int
	Clock sim.Clock
	Net   Sender
	// LinkRTT estimates the RTT to a neighbor, used for the per-hop delay
	// extension accounting (processing + RTT/2). May be nil (counts
	// processing only).
	LinkRTT func(to int) time.Duration
	// PathLookup reaches the Streaming Brain. Nil disables consumer-side
	// establishment (pure relay/producer node).
	PathLookup PathLookupFunc
	// OnNewStream fires when a broadcaster starts uploading a new stream
	// here (producer role); the core wires it to Stream Management.
	OnNewStream func(streamID uint32)
	// IsOverlay reports whether an endpoint ID is another overlay node
	// (as opposed to a broadcaster/viewer client). Packets for unknown
	// streams from overlay peers are stray (e.g. in flight across a
	// teardown) and are dropped instead of adopting producership. Nil
	// treats every sender as a potential broadcaster.
	IsOverlay func(id int) bool
	// InitialRateBps seeds per-link pacers and GCC (default 8 Mbps).
	InitialRateBps float64
	// MinRateBps / MaxRateBps bound GCC (defaults 100 kbps / 100 Mbps).
	MinRateBps, MaxRateBps float64
	// ProcessingDelay is the nominal per-packet processing time added to
	// the delay extension at each hop (default 1 ms).
	ProcessingDelay time.Duration
	// GoPCacheGoPs bounds the per-stream GoP cache (default 3).
	GoPCacheGoPs int
	// FrameDropThreshold is the per-client queue delay that triggers
	// proactive frame dropping (default 350 ms); 2x drops P frames, 3x
	// whole GoPs.
	FrameDropThreshold time.Duration
	// NACKInterval is the slow-path loss scan period (default 50 ms, §5.1).
	NACKInterval time.Duration
	// ReportInterval is the RR/REMB feedback period (default 500 ms).
	ReportInterval time.Duration
	// MaxNACKRetries bounds recovery attempts per hole (default 8).
	MaxNACKRetries int
	// StallSwitchThreshold is the number of client-reported stalls that
	// triggers a path switch (long-chain mitigation, §4.4; default 2).
	StallSwitchThreshold int
	// OnStreamEnded fires when a producer stream is garbage-collected
	// after its broadcaster stops uploading; the core wires it to Stream
	// Management (unregister from the SIB).
	OnStreamEnded func(streamID uint32)
	// StreamIdleTimeout garbage-collects a producer stream after no
	// upload packets for this long (default 30 s).
	StreamIdleTimeout time.Duration
	// UpstreamTimeout is the upstream-silence detection window (§4.3): an
	// established non-producer stream with consumers that has received no
	// data for this long fast-switches to a backup path (re-querying the
	// Brain when backups are exhausted). Default 3 s; <0 disables.
	UpstreamTimeout time.Duration
	// EstablishTimeout re-arms a subscription that is stuck: a Subscribe
	// sent but never acked, or a failed path lookup, is retried after this
	// long (next backup first, then a fresh Brain query). Default 3 s.
	EstablishTimeout time.Duration
	// MigrateGuardTimeout bounds a make-before-break migration: if the new
	// leg has not delivered a spliceable GoP boundary within this window
	// the migration is aborted and the stream stays on (or is recovered
	// via) the reactive ladder. Must exceed one GoP interval. Default 4 s.
	MigrateGuardTimeout time.Duration
	// LowerRendition maps a stream to its next-lower simulcast rendition
	// (§5.2: "the consumer node will request a lower bitrate stream
	// version if the sending queue is consistently building up"). Nil
	// disables bitrate down-switching.
	LowerRendition func(sid uint32) (uint32, bool)
	// BitrateSwitchAfter is how long a client's queue must stay past the
	// drop threshold before down-switching (default 3 s).
	BitrateSwitchAfter time.Duration
	// SerialSend forces every outgoing packet through Net.Send one
	// datagram at a time, even when the transport supports vectored or
	// batched submits. The emulator makes batched sends byte- and
	// RNG-identical to serial ones, and the replay-equality tests use
	// this knob to prove it.
	SerialSend bool
	// Telemetry is the metrics registry this node registers its counters
	// in (see OBSERVABILITY.md for the catalogue). Nil disables
	// registration; the node then counts into private unregistered
	// instruments at identical (zero-allocation) cost.
	Telemetry *telemetry.Registry
	// Tracer records sampled per-packet journeys across hops. Nil (the
	// default) disables tracing entirely — no sampling draws are made, so
	// replays stay byte-identical with tracing-unaware builds.
	Tracer *telemetry.Tracer
}

func (c Config) withDefaults() Config {
	if c.InitialRateBps <= 0 {
		c.InitialRateBps = 8e6
	}
	if c.MinRateBps <= 0 {
		c.MinRateBps = 100e3
	}
	if c.MaxRateBps <= 0 {
		c.MaxRateBps = 100e6
	}
	if c.ProcessingDelay <= 0 {
		c.ProcessingDelay = time.Millisecond
	}
	if c.GoPCacheGoPs <= 0 {
		c.GoPCacheGoPs = 3
	}
	if c.FrameDropThreshold <= 0 {
		c.FrameDropThreshold = 350 * time.Millisecond
	}
	if c.NACKInterval <= 0 {
		c.NACKInterval = 50 * time.Millisecond
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = 500 * time.Millisecond
	}
	if c.MaxNACKRetries <= 0 {
		c.MaxNACKRetries = 8
	}
	if c.StallSwitchThreshold <= 0 {
		c.StallSwitchThreshold = 2
	}
	if c.BitrateSwitchAfter <= 0 {
		c.BitrateSwitchAfter = 3 * time.Second
	}
	if c.StreamIdleTimeout <= 0 {
		c.StreamIdleTimeout = 30 * time.Second
	}
	if c.UpstreamTimeout == 0 {
		c.UpstreamTimeout = 3 * time.Second
	}
	if c.EstablishTimeout <= 0 {
		c.EstablishTimeout = 3 * time.Second
	}
	if c.MigrateGuardTimeout <= 0 {
		c.MigrateGuardTimeout = 4 * time.Second
	}
	return c
}

// Metrics are the node's cumulative counters; the evaluation harness
// scrapes them (they correspond to the consumer-node logs of §6.1).
type Metrics struct {
	PacketsReceived  uint64
	PacketsForwarded uint64
	NACKsSent        uint64
	NACKsReceived    uint64
	Retransmits      uint64
	HolesRecovered   uint64
	HolesAbandoned   uint64
	LocalHits        uint64 // Algorithm 1 line 1 taken
	PathLookups      uint64
	PathSwitches     uint64
	DroppedBFrames   uint64
	DroppedPFrames   uint64
	DroppedGoPs      uint64
	CacheHitPrimes   uint64 // subscriptions served from local cache
	BitrateSwitches  uint64 // clients moved to a lower simulcast rendition
	UpstreamTimeouts uint64 // silence windows that triggered failure detection
	FastSwitches     uint64 // fast path switches (planned splices + silence recovery)
	// FastSwitchesPlanned/Unplanned attribute FastSwitches: a planned
	// make-before-break splice vs the reactive silence-detection ladder.
	FastSwitchesPlanned   uint64
	FastSwitchesUnplanned uint64
	CacheFallbacks        uint64 // Brain unreachable, local path cache used instead
	MigrationsStarted     uint64 // make-before-break migrations begun
	MigrationsCompleted   uint64 // migrations spliced onto the new leg
	MigrationsAborted     uint64 // migrations abandoned (guard timer / reject / teardown)
}

// pacerTick is the longest a backlogged link sleeps before its next drain
// (the pacer's burst cap covers exactly this long at the link's rate), and
// pacerFloor the shortest: a deficit paid sooner than a real timer can
// honour is rounded up to it, and the budget accrued meanwhile goes out as
// one batch.
const (
	pacerTick  = gcc.BurstWindow
	pacerFloor = 250 * time.Microsecond
)

// Node is one overlay node.
type Node struct {
	mu  sync.Mutex
	cfg Config
	id  int

	streams map[uint32]*stream
	out     map[int]*outLink

	// pool backs the zero-copy fan-out: each ingress packet's payload
	// tail is copied into a pooled buffer once and shared (refcounted)
	// across every subscriber.
	pool *pktbuf.Pool
	// vecNet/batchNet are the transport's optional vectored/batched
	// entry points, resolved once at construction (nil when unsupported
	// or when cfg.SerialSend forces the plain path).
	vecNet   VecSender
	batchNet BatchSender

	tel instruments

	// dirty is the set of links with packets their pacer has not been
	// offered, in kick order; one drain pass services all of them, so a
	// 1k-subscriber fan-out costs one clock event, not one per link. Passes
	// are single-flight: passActive holds from the kick that schedules one
	// until it finds nothing dirty; a kick meanwhile only appends and the
	// pass loops. So a link's packets reach the wire in queue order under a
	// real (concurrent) clock, and the pass alone owns passLinks (the list
	// it walks) and every toSend. waiting holds the links left backlogged
	// with no budget until the deficit timer (due at timerDue; 0: unarmed).
	dirty, waiting, passLinks []*outLink
	passActive                bool
	timerDue                  time.Duration
	drainAllFn, deficitFn     func()

	// OnFirstPacket fires when the first data packet is sent to a local
	// client after AttachViewer (first-packet delay, §6.1).
	OnFirstPacket func(clientID int, streamID uint32, delay time.Duration)
	// OnEstablished fires when a consumer-side subscription is acked with
	// the actual producer→here path.
	OnEstablished func(streamID uint32, path []int, localHit bool)

	scanTimer sim.Timer
	scanSIDs  []uint32 // reusable sorted-iteration scratch for scan()
	// draining refuses new downstream subscriptions (SubReject) while the
	// node's carried streams are migrated off for a planned decommission.
	draining bool
	closed   bool
}

// outLink is the paced sender state toward one neighbor (node or client).
type outLink struct {
	to    int
	pacer *gcc.Pacer[outPacket]
	ctrl  *gcc.Controller
	// queued: the link is in the node's dirty or waiting list, so a kick
	// has nothing to add.
	queued bool

	// emitFn is created once per link so draining the pacer does not
	// allocate a closure on the hot path.
	emitFn func(it gcc.Item[outPacket])
	// toSend is the drain scratch: filled by emitFn under mu, flushed
	// outside it by the same (single-flight) pass.
	toSend []outPacket
	// vecs/asm are flush scratch: the batch submit view and the
	// plain-Send assembly buffer.
	vecs []wire.Vec
	asm  []byte
}

// outHdrCap bounds the inline header prefix an outPacket carries: the
// wire envelope (5 bytes) plus the RTP header, CSRC list, and extension
// block. LiveNet's own packets use 5+12+12 = 29 bytes; anything larger
// (foreign CSRC-heavy packets) falls back to a full frame copy.
const outHdrCap = 48

// outPacket is a pacer queue entry: one datagram bound for one neighbor.
// The mutable region of the frame — wire tag, send-time stamp, RTP
// header and delay extension — is a private inline copy in hdr, so the
// per-link delay accounting and send-time stamping never touch shared
// bytes. The payload tail is a refcounted pooled buffer shared across
// the whole fan-out (zero-copy). Cold-path packets (GoP cache primes,
// retransmissions, foreign packets with oversized prefixes) instead
// carry a private full frame in frame, with tail nil.
//
// The trace fields identify the RTP packet for the per-hop tracer;
// traced is false for every packet when tracing is off, so drainLink's
// trace branch never fires.
type outPacket struct {
	to     int
	hdr    [outHdrCap]byte // frame prefix: [MsgRTP][sendtime][RTP hdr+ext]
	hdrLen uint8           // bytes of hdr in use (0 when frame is set)
	tail   *pktbuf.Buf     // shared payload after the prefix (holds one ref)
	frame  []byte          // cold path: private full frame, placeholder send time
	sid    uint32          // RTP SSRC (stream ID)
	seq    uint16          // RTP sequence number
	traced bool            // packet has an open journey in the tracer
	rtx    bool            // NACK-triggered retransmission
	at     time.Duration   // when it was queued (node.pacer_wait_us)
}

// size returns the datagram length.
func (p *outPacket) size() int {
	if p.tail != nil {
		return int(p.hdrLen) + p.tail.Len()
	}
	return len(p.frame)
}

// release drops the packet's reference on the shared payload tail.
func (p *outPacket) release() {
	if p.tail != nil {
		p.tail.Release()
		p.tail = nil
	}
}

// dropRelease is the pacer DropClass callback (package-level: no closure
// allocation at the call sites).
func dropRelease(it gcc.Item[outPacket]) { it.Payload.release() }

// fanoutSrc is the per-ingress-packet fan-out source, built once in
// onRTP: the frame prefix template (send time zeroed, delay extension
// still the upstream's — each link patches its own copy) and the pooled
// payload tail shared by every subscriber. When the packet's prefix
// does not fit outHdrCap (tail == nil), pushFrom falls back to framing
// a private copy per subscriber from rtpData.
type fanoutSrc struct {
	hdr     [outHdrCap]byte
	hdrLen  uint8
	tail    *pktbuf.Buf // nil: fall back to per-subscriber frame copies
	rtpData []byte      // borrowed from the transport; valid during onRTP only
	sid     uint32
	seq     uint16
	at      time.Duration // the queueing time stamped into every outPacket
}

// initFanoutSrc populates src for one ingress packet. Called with mu held.
func (n *Node) initFanoutSrc(src *fanoutSrc, rtpData []byte, sid uint32, seq uint16, now time.Duration) {
	src.rtpData = rtpData
	src.sid = sid
	src.seq = seq
	src.at = now
	src.tail = nil
	pl := rtp.PrefixLen(rtpData)
	if pl < 0 || wire.RTPHeaderLen+pl > outHdrCap {
		return
	}
	src.hdr[0] = wire.MsgRTP
	binary.BigEndian.PutUint32(src.hdr[1:], 0)
	copy(src.hdr[wire.RTPHeaderLen:], rtpData[:pl])
	src.hdrLen = uint8(wire.RTPHeaderLen + pl)
	src.tail = n.pool.Get(len(rtpData) - pl)
	copy(src.tail.Bytes(), rtpData[pl:])
}

// release drops the source's own reference (subscribers hold their own).
func (src *fanoutSrc) release() {
	if src.tail != nil {
		src.tail.Release()
		src.tail = nil
	}
}

// stream is the per-stream state (FIB entry + slow path).
type stream struct {
	id          uint32
	producer    bool
	upstream    int // node we receive from; -1 if none yet; broadcaster client if producer
	established bool
	fullPath    []int // actual producer→this-node path (this node last)

	subscribers map[int]bool         // downstream overlay nodes
	clients     map[int]*clientState // locally attached viewers
	// subOrder/clientOrder mirror the FIB maps in insertion order: the
	// fast path fans out along these slices so packet emission order (and
	// with it the whole simulation) is deterministic — map iteration
	// order is not.
	subOrder    []int
	clientOrder []int
	// rtxHeld holds the subscribers that have sent a Subscribe and not yet
	// been seen through a recovered packet. The first one toward such a
	// subscriber queues in its own class, behind whatever of the stream
	// is queued there (the value is 0 until then, afterwards that packet's
	// place in the class's FIFO), and so do the ones after it until it has
	// left. Sent in the retransmission class it would overtake a GoP prime
	// still queued for the subscriber and be the first packet of the
	// stream it receives: its delivery front — and its GoP cache — would
	// start past the I frame.
	rtxHeld map[int]uint64

	lookupPending  bool
	backupPaths    [][]int
	requestedPath  []int
	establishStart time.Duration

	// cachedPaths is the node-local path cache (§4.3): the last successful
	// Brain answer, used when the Brain itself is unreachable.
	cachedPaths [][]int
	// retryAt re-arms a stuck establishment (Subscribe never acked, or a
	// failed lookup with nothing cached); 0 when disarmed.
	retryAt time.Duration

	// pendingSubs are downstream Subscribe requests that arrived before we
	// ourselves are established; acked when the SubAck comes back.
	pendingSubs []uint16

	cache *gop.Cache
	rtx   *rtxRing
	rx    *recvState

	// lastData is when the last RTP packet for this stream arrived
	// (drives producer-stream garbage collection).
	lastData time.Duration

	// mig is the in-flight make-before-break migration, nil otherwise.
	mig *migration
	// oldLegFrom/oldLegUntil gate the just-torn-down upstream after a
	// splice: its in-flight packets still reach the slow path (seq dedup)
	// but are kept out of the fan-out so downstream sees no duplicates.
	// oldLegFrom is -1 when no grace window is active.
	oldLegFrom  int
	oldLegUntil time.Duration
	// fanoutGate suppresses fan-out of new-upstream packets older than
	// fanoutFrom just after a splice: the old leg already delivered that
	// overlap, so re-forwarding it would duplicate frames downstream. The
	// gate clears itself on the first packet at or past the resume point.
	fanoutGate bool
	fanoutFrom uint16
	// pruneAt rate-limits reverse-path prunes: stream data arriving from
	// an overlay peer that is not this stream's upstream means that peer
	// holds a stale FIB entry (our Unsubscribe was lost); the next prune
	// re-sends it no earlier than this.
	pruneAt time.Duration
	// lastFanout tracks the highest sequence number actually fanned out,
	// so a splice knows the downstream delivery front (which can trail
	// rx.highest when a gated migration leg runs ahead of the old leg).
	lastFanout uint16
	haveFanout bool
}

// New creates a node and starts its slow-path timers.
func New(cfg Config) *Node {
	cfg = cfg.withDefaults()
	n := &Node{
		cfg:     cfg,
		id:      cfg.ID,
		streams: make(map[uint32]*stream),
		out:     make(map[int]*outLink),
		pool:    pktbuf.New(),
		tel:     newInstruments(cfg.Telemetry),
	}
	n.pool.Instrument(n.tel.framePoolHits, n.tel.framePoolMisses)
	n.drainAllFn = func() { n.drainAll(false) }
	n.deficitFn = func() { n.drainAll(true) }
	if !cfg.SerialSend {
		n.vecNet, _ = cfg.Net.(VecSender)
		n.batchNet, _ = cfg.Net.(BatchSender)
	}
	n.scheduleScan()
	return n
}

// ID returns the node's overlay ID.
func (n *Node) ID() int { return n.id }

// Metrics returns a snapshot of the counters. The struct view is kept for
// existing callers; the same values live in the telemetry registry under
// the node.* names when one is attached.
func (n *Node) Metrics() Metrics {
	return Metrics{
		PacketsReceived:       n.tel.packetsReceived.Load(),
		PacketsForwarded:      n.tel.packetsForwarded.Load(),
		NACKsSent:             n.tel.nacksSent.Load(),
		NACKsReceived:         n.tel.nacksReceived.Load(),
		Retransmits:           n.tel.retransmits.Load(),
		HolesRecovered:        n.tel.holesRecovered.Load(),
		HolesAbandoned:        n.tel.holesAbandoned.Load(),
		LocalHits:             n.tel.localHits.Load(),
		PathLookups:           n.tel.pathLookups.Load(),
		PathSwitches:          n.tel.pathSwitches.Load(),
		DroppedBFrames:        n.tel.droppedBFrames.Load(),
		DroppedPFrames:        n.tel.droppedPFrames.Load(),
		DroppedGoPs:           n.tel.droppedGoPs.Load(),
		CacheHitPrimes:        n.tel.cacheHitPrimes.Load(),
		BitrateSwitches:       n.tel.bitrateSwitches.Load(),
		UpstreamTimeouts:      n.tel.upstreamTimeouts.Load(),
		FastSwitches:          n.tel.fastSwitches.Load(),
		FastSwitchesPlanned:   n.tel.fastSwitchesPlanned.Load(),
		FastSwitchesUnplanned: n.tel.fastSwitchesUnplanned.Load(),
		CacheFallbacks:        n.tel.cacheFallbacks.Load(),
		MigrationsStarted:     n.tel.migrationsStarted.Load(),
		MigrationsCompleted:   n.tel.migrationsCompleted.Load(),
		MigrationsAborted:     n.tel.migrationsAborted.Load(),
	}
}

// Close stops timers.
func (n *Node) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	if n.scanTimer != nil {
		n.scanTimer.Stop()
	}
}

// Streams returns the IDs of streams with state on this node.
func (n *Node) Streams() []uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]uint32, 0, len(n.streams))
	for id := range n.streams {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// HasStream reports whether the node carries the stream (established).
func (n *Node) HasStream(sid uint32) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.streams[sid]
	return s != nil && s.established
}

// StreamPath returns the actual producer→node path for an established
// stream (nil otherwise).
func (n *Node) StreamPath(sid uint32) []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.streams[sid]
	if s == nil || !s.established {
		return nil
	}
	return append([]int(nil), s.fullPath...)
}

// StreamCount returns the number of streams with state on this node. The
// core feeds it into the Brain's node-load reports (combined with link
// utilization, per §4.2 footnote 4).
func (n *Node) StreamCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.streams)
}

// OnMessage is the transport delivery entry point.
func (n *Node) OnMessage(from int, data []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	switch wire.Kind(data) {
	case wire.MsgRTP:
		n.onRTP(from, data)
	case wire.MsgRTCP:
		n.onRTCP(from, data[1:])
	case wire.MsgSubscribe:
		n.onSubscribe(from, data)
	case wire.MsgUnsubscribe:
		n.onUnsubscribe(from, data)
	case wire.MsgSubAck:
		n.onSubAck(from, data)
	case wire.MsgSubReject:
		n.onSubReject(from, data)
	}
}

// onRTP is the fast path (§5.1): FIB lookup, immediate forward to all
// subscribers, then a copy to the slow path. Called with mu held.
func (n *Node) onRTP(from int, data []byte) {
	sendTime10us, rtpData, err := wire.UnframeRTP(data)
	if err != nil {
		return
	}
	var pkt rtp.Packet
	if err := pkt.Unmarshal(rtpData); err != nil {
		return
	}
	n.tel.packetsReceived.Inc()
	now := n.cfg.Clock.Now()

	fromOverlay := n.cfg.IsOverlay != nil && n.cfg.IsOverlay(from)
	s := n.streams[pkt.SSRC]
	switch {
	case s == nil && !fromOverlay:
		// Unknown stream from a client: a broadcaster upload makes this
		// node the stream's producer.
		s = n.newStream(pkt.SSRC)
		n.adoptProducerRole(s, from)
	case s == nil:
		// Stray packet from an overlay peer (e.g. in flight across a
		// teardown): drop.
		return
	case !s.established && s.upstream == -1 && !s.lookupPending && !fromOverlay:
		// The stream had parked subscriptions (viewers arrived before the
		// broadcast began) and the upload is now starting here.
		n.adoptProducerRole(s, from)
	}
	s.lastData = now
	isRTX := false
	if s.rx != nil && s.rx.isPendingHole(pkt.SequenceNumber) {
		isRTX = true
	}

	// Per-hop tracing: overlay ingress (a broadcaster upload with somewhere
	// to forward to) offers the packet for sampling; arrivals from overlay
	// peers extend an already-open journey. A nil tracer skips the whole
	// block — no sampling draws, no behavior change.
	if tr := n.cfg.Tracer; tr != nil {
		if !fromOverlay {
			if len(s.subOrder)+len(s.clientOrder) > 0 {
				tr.Begin(pkt.SSRC, pkt.SequenceNumber, n.id)
			}
		} else {
			tr.Recv(pkt.SSRC, pkt.SequenceNumber, n.id)
		}
	}

	// Make-before-break gating (§4.3 extension): while a migration's new
	// leg runs alongside the active one, its packets feed the slow path
	// (warming the dedup window and GoP cache) but must not fan out —
	// downstream would see duplicates. The splice flips legs on a GoP
	// boundary; the resume gate below then suppresses the overlap the old
	// leg already delivered.
	fanout := true
	if m := s.mig; m != nil && fromOverlay && from == m.prevHop && from != s.upstream {
		if m.acked && spliceReady(&pkt) {
			n.spliceLocked(s, now)
		} else {
			fanout = false
		}
	} else if s.oldLegFrom >= 0 && from == s.oldLegFrom && from != s.upstream {
		// Post-splice grace: the old leg's in-flight tail still feeds
		// the slow path (dedup, loss bookkeeping) but never the fan-out —
		// everything below the resume point was either already delivered
		// or flushed from the RTX ring at the splice.
		if now >= s.oldLegUntil {
			s.oldLegFrom = -1
		}
		fanout = false
	}
	if fanout && s.fanoutGate && fromOverlay && from == s.upstream {
		if rtp.SeqLess(pkt.SequenceNumber, s.fanoutFrom) {
			fanout = false
		} else {
			s.fanoutGate = false
		}
	}

	// Reverse-path check: stream data from an overlay peer that is not
	// this stream's upstream (nor a tolerated migration or old-leg feed)
	// means that peer holds a stale subscription for us — our Unsubscribe
	// was lost in transit. Re-send it, rate limited, so the stale FIB
	// entry is eventually pruned, and drop the packet: a foreign feed
	// must reach neither the fan-out nor the slow path.
	if fromOverlay && s.established && s.upstream >= 0 && from != s.upstream &&
		from != s.oldLegFrom && (s.mig == nil || from != s.mig.prevHop) {
		if now >= s.pruneAt {
			s.pruneAt = now + prunePeriod
			u := wire.Unsubscribe{StreamID: s.id, Requester: uint16(n.id)}
			n.sendControl(from, u.Marshal(nil))
		}
		return
	}

	// Fast path: forward to every subscribed downstream node. The frame
	// envelope is built once; each subscriber gets a private copy of the
	// mutable prefix (so the per-hop delay extension can differ per
	// link) and a refcounted reference to the shared payload tail.
	if fanout && len(s.subOrder)+len(s.clientOrder) > 0 {
		if !s.haveFanout || rtp.SeqLess(s.lastFanout, pkt.SequenceNumber) {
			s.lastFanout = pkt.SequenceNumber
			s.haveFanout = true
		}
		class, gain := classify(&pkt)
		var src fanoutSrc
		n.initFanoutSrc(&src, rtpData, pkt.SSRC, pkt.SequenceNumber, now)
		for _, sub := range s.subOrder {
			n.forwardTo(sub, &src, class, gain, isRTX && n.rtxMayJump(s, sub, class))
		}
		// Local clients (consumer role), with proactive frame dropping.
		for _, id := range s.clientOrder {
			n.forwardToClient(s, s.clients[id], &src, &pkt)
		}
		src.release()
	}

	// Slow path: congestion control, loss recovery, framing, GoP cache.
	n.slowPathReceive(s, from, sendTime10us, rtpData, &pkt)
}

// classify maps a packet to a pacer class and pacing gain using the
// frame header that rides at the start of the payload.
func classify(pkt *rtp.Packet) (gcc.Class, float64) {
	if pkt.PayloadType == rtp.PayloadAudio {
		return gcc.ClassAudio, 0
	}
	var h media.FrameHeader
	if err := h.Unmarshal(pkt.Payload); err == nil && h.Type == media.FrameI {
		return gcc.ClassVideo, gcc.IFramePacingGain
	}
	return gcc.ClassVideo, 0
}

// rtxMayJump reports whether a recovered packet of s may go to sub in the
// retransmission class, ahead of the queued video (see stream.rtxHeld);
// if not, the caller queues it in class. Called with mu held.
func (n *Node) rtxMayJump(s *stream, sub int, class gcc.Class) bool {
	pos, held := s.rtxHeld[sub]
	if !held {
		return true
	}
	p := n.link(sub).pacer
	if pos == 0 {
		s.rtxHeld[sub] = p.NextPos(class)
		return false
	}
	if !p.Passed(class, pos) {
		return false
	}
	delete(s.rtxHeld, sub)
	return true
}

// forwardTo enqueues one fan-out packet toward a downstream node.
// Called with mu held.
func (n *Node) forwardTo(to int, src *fanoutSrc, class gcc.Class, gain float64, isRTX bool) {
	if isRTX {
		class = gcc.ClassRTX
	}
	l := n.link(to)
	n.pushFrom(l, src, class, gain, isRTX, n.cfg.Tracer.Traced(src.sid, src.seq))
	n.kickPacer(l)
}

// pushFrom builds the per-link outPacket from the fan-out source —
// copying only the mutable prefix and retaining the shared tail — and
// enqueues it on the link's pacer. The per-hop delay accounting
// (processing + RTT/2, §6.1) is patched into the private prefix copy.
// Called with mu held.
func (n *Node) pushFrom(l *outLink, src *fanoutSrc, class gcc.Class, gain float64, isRTX, traced bool) {
	var half time.Duration
	if n.cfg.LinkRTT != nil {
		half = n.cfg.LinkRTT(l.to) / 2
	}
	add := uint32((n.cfg.ProcessingDelay + half) / (10 * time.Microsecond))
	op := outPacket{to: l.to, sid: src.sid, seq: src.seq, rtx: isRTX, traced: traced, at: src.at}
	if src.tail != nil {
		op.hdr = src.hdr
		op.hdrLen = src.hdrLen
		op.tail = src.tail.Retain()
		rtp.PatchDelayExt(op.hdr[wire.RTPHeaderLen:op.hdrLen], add)
	} else {
		frame := wire.FrameRTP(make([]byte, 0, wire.RTPHeaderLen+len(src.rtpData)), 0, src.rtpData)
		rtp.PatchDelayExt(frame[wire.RTPHeaderLen:], add)
		op.frame = frame
	}
	l.pacer.Push(gcc.Item[outPacket]{Class: class, Size: op.size(), Gain: gain, Payload: op})
}

// forwardCopy frames rtpData into a private allocation and enqueues it
// (cold paths: GoP cache primes toward overlay subscribers and
// NACK-triggered retransmissions — rtpData belongs to cache/ring storage
// that may be recycled, so sharing a pooled tail is not safe here).
// Called with mu held.
func (n *Node) forwardCopy(to int, rtpData []byte, class gcc.Class, gain float64, isRTX bool, sid uint32, seq uint16) {
	src := fanoutSrc{rtpData: rtpData, sid: sid, seq: seq, at: n.cfg.Clock.Now()}
	n.forwardTo(to, &src, class, gain, isRTX)
}

// link returns (creating if needed) the out-link state for a neighbor.
// Called with mu held.
func (n *Node) link(to int) *outLink {
	l := n.out[to]
	if l == nil {
		l = &outLink{
			to:    to,
			pacer: gcc.NewPacer[outPacket](n.cfg.InitialRateBps),
			ctrl:  gcc.NewController(n.cfg.InitialRateBps, n.cfg.MinRateBps, n.cfg.MaxRateBps),
		}
		l.emitFn = func(it gcc.Item[outPacket]) { l.toSend = append(l.toSend, it.Payload) }
		n.out[to] = l
	}
	return l
}

// kickPacer marks a link dirty and makes sure a drain pass sees it: the
// running one, or one scheduled now at delay 0, so that the receive loop
// reads on while the pass sends. A link waiting for the deficit timer has
// no budget: a kick has nothing to offer it. Called with mu held.
func (n *Node) kickPacer(l *outLink) {
	if !l.queued {
		l.queued = true
		n.dirty = append(n.dirty, l)
		if !n.passActive {
			n.passActive = true
			n.cfg.Clock.Schedule(0, n.drainAllFn)
		}
	}
}

// drainAll is the node's drain pass, started by a kick or (timer) by the
// deficit timer handing the waiting links back. Until nothing is dirty it
// drains each dirty link's pacer into its scratch under one lock hold and
// flushes the batches outside it. A link left backlogged with no budget
// waits for the timer: armed for when the first such deficit is paid,
// within [pacerFloor, pacerTick].
func (n *Node) drainAll(timer bool) {
	n.mu.Lock()
	if timer {
		// An event an earlier re-arm superseded finds the timer disarmed
		// or re-armed for later: that one took the links.
		if n.timerDue != 0 && n.cfg.Clock.Now() >= n.timerDue {
			n.timerDue = 0
			n.dirty = append(n.dirty, n.waiting...)
			n.waiting = n.waiting[:0]
		}
		if n.passActive || len(n.dirty) == 0 {
			n.mu.Unlock()
			return // the running pass takes them, or there is nothing to
		}
		n.passActive = true
		n.tel.drainTimerPasses.Inc()
	} else {
		n.tel.drainPasses.Inc()
	}
	for len(n.dirty) > 0 && !n.closed {
		links := n.dirty
		n.dirty, n.passLinks = n.passLinks[:0], links // kicks refill last round's list
		now := n.cfg.Clock.Now()
		wake, parked := pacerTick, false
		for _, l := range links {
			l.queued = false
			if qd := l.pacer.QueueDelay(); qd > 0 {
				n.tel.pacerQueueUs.Observe(int64(qd / time.Microsecond))
			}
			l.toSend = l.toSend[:0]
			if wait := l.pacer.Drain(now, l.emitFn); wait > 0 {
				l.queued, parked = true, true
				n.waiting = append(n.waiting, l)
				wake = min(wake, wait)
			}
		}
		if due := now + max(wake, pacerFloor); parked && (n.timerDue == 0 || due < n.timerDue) {
			n.timerDue = due
			n.cfg.Clock.Schedule(due-now, n.deficitFn)
		}
		n.mu.Unlock()

		// Stamp and send outside the lock: the transport may deliver
		// synchronously in degenerate cases and re-enter OnMessage. A
		// fan-out's packets were queued at one instant: a run of them
		// costs one wait-histogram update (one per packet is three atomic
		// adds each, +10 % ns/op on NodeForwardFanout*; EXPERIMENTS.md).
		now10us := uint32(now / (10 * time.Microsecond))
		at, run := time.Duration(0), uint64(0)
		for _, l := range links {
			toSend := l.toSend // the pass's own: no kick touches it
			if len(toSend) == 0 {
				continue
			}
			n.tel.packetsForwarded.Add(uint64(len(toSend)))
			n.tel.fanoutBatch.Observe(int64(len(toSend)))
			for i := range toSend {
				p := &toSend[i]
				if p.tail != nil {
					binary.BigEndian.PutUint32(p.hdr[1:], now10us)
				} else {
					wire.PatchRTPSendTime(p.frame, now10us)
				}
				if p.traced {
					n.cfg.Tracer.Send(p.sid, p.seq, n.id, p.to, p.rtx)
				}
				if p.at != at {
					n.tel.pacerWaitUs.ObserveN(int64((now-at)/time.Microsecond), run)
					at, run = p.at, 0
				}
				run++
			}
			n.flushBatch(l, toSend)
			for i := range toSend {
				toSend[i].release()
				toSend[i] = outPacket{}
			}
		}
		n.tel.pacerWaitUs.ObserveN(int64((now-at)/time.Microsecond), run)
		n.mu.Lock()
	}
	n.passActive = false
	n.mu.Unlock()
}

// flushBatch hands the drained link batch to the transport: one batched
// submit when the transport supports it, vectored sends otherwise, and
// plain per-datagram sends (assembling prefix+tail in the link's scratch)
// as the portable floor. Transport errors (no link) are swallowed: the
// fast path has nothing to do, and the transport counts them.
func (n *Node) flushBatch(l *outLink, toSend []outPacket) {
	if n.batchNet != nil {
		vecs := l.vecs[:0]
		for i := range toSend {
			p := &toSend[i]
			if p.tail != nil {
				vecs = append(vecs, wire.Vec{Hdr: p.hdr[:p.hdrLen], Payload: p.tail.Bytes()})
			} else {
				vecs = append(vecs, wire.Vec{Hdr: p.frame})
			}
		}
		l.vecs = vecs
		_ = n.batchNet.SendBatch(n.id, l.to, vecs)
		for i := range vecs {
			vecs[i] = wire.Vec{}
		}
		return
	}
	if n.vecNet != nil {
		for i := range toSend {
			p := &toSend[i]
			if p.tail != nil {
				_ = n.vecNet.SendVec(n.id, p.to, p.hdr[:p.hdrLen], p.tail.Bytes())
			} else {
				_ = n.vecNet.SendVec(n.id, p.to, p.frame, nil)
			}
		}
		return
	}
	for i := range toSend {
		p := &toSend[i]
		if p.tail == nil {
			_ = n.cfg.Net.Send(n.id, p.to, p.frame)
			continue
		}
		l.asm = append(append(l.asm[:0], p.hdr[:p.hdrLen]...), p.tail.Bytes()...)
		_ = n.cfg.Net.Send(n.id, p.to, l.asm)
	}
}

// sendControl sends a control message immediately (not paced).
// Called with mu held or not — it does not touch node state.
func (n *Node) sendControl(to int, data []byte) {
	if err := n.cfg.Net.Send(n.id, to, data); err != nil {
		_ = err
	}
}

// adoptProducerRole marks this node as the stream's producer (the
// broadcaster uploads directly to it) and acks any parked downstream
// subscriptions. Called with mu held.
func (n *Node) adoptProducerRole(s *stream, broadcaster int) {
	s.producer = true
	s.upstream = broadcaster
	s.established = true
	s.retryAt = 0
	s.fullPath = []int{n.id}
	n.ackPendingSubsLocked(s)
	if n.cfg.OnNewStream != nil {
		sid := s.id
		cb := n.cfg.OnNewStream
		n.cfg.Clock.AfterFunc(0, func() { cb(sid) })
	}
}

// ackPendingSubsLocked acks downstream subscribers that were waiting for
// this node to become established.
func (n *Node) ackPendingSubsLocked(s *stream) {
	if len(s.pendingSubs) == 0 {
		return
	}
	ackPath := make([]uint16, 0, len(s.fullPath))
	for _, h := range s.fullPath {
		ackPath = append(ackPath, uint16(h))
	}
	for _, req := range s.pendingSubs {
		out := wire.SubAck{StreamID: s.id, Path: ackPath}
		n.sendControl(int(req), out.Marshal(nil))
	}
	s.pendingSubs = s.pendingSubs[:0]
}

// newStream creates stream state. Called with mu held.
func (n *Node) newStream(sid uint32) *stream {
	s := &stream{
		id:          sid,
		upstream:    -1,
		oldLegFrom:  -1,
		subscribers: make(map[int]bool),
		rtxHeld:     make(map[int]uint64),
		clients:     make(map[int]*clientState),
		cache:       gop.NewCache(n.cfg.GoPCacheGoPs, 0),
		rtx:         newRTXRing(1024),
	}
	n.streams[sid] = s
	return s
}

// addSubscriber/dropSubscriber and addClient/dropClient keep the ordered
// mirrors in sync with the FIB maps.
func (s *stream) addSubscriber(id int) {
	if !s.subscribers[id] {
		s.subscribers[id] = true
		s.subOrder = append(s.subOrder, id)
	}
	s.rtxHeld[id] = 0 // a Subscribe: the requester may be starting over
}

func (s *stream) dropSubscriber(id int) {
	if s.subscribers[id] {
		delete(s.subscribers, id)
		delete(s.rtxHeld, id)
		s.subOrder = removeID(s.subOrder, id)
	}
}

func (s *stream) addClient(c *clientState) {
	if s.clients[c.id] == nil {
		s.clientOrder = append(s.clientOrder, c.id)
	}
	s.clients[c.id] = c
}

func (s *stream) dropClient(id int) {
	if s.clients[id] != nil {
		delete(s.clients, id)
		s.clientOrder = removeID(s.clientOrder, id)
	}
}

func removeID(xs []int, id int) []int {
	for i, x := range xs {
		if x == id {
			return append(xs[:i], xs[i+1:]...)
		}
	}
	return xs
}

// String implements fmt.Stringer.
func (n *Node) String() string { return fmt.Sprintf("node(%d)", n.id) }

// LinkState reports the pacing rate and queue depth toward a neighbor
// (introspection for operations dashboards and tests).
func (n *Node) LinkState(to int) (rateBps float64, queueBytes int, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.out[to]
	if l == nil {
		return 0, 0, false
	}
	return l.pacer.Rate(), l.pacer.QueueBytes(), true
}

// RecvRate reports the receiver-side GCC estimate and measured incoming
// bitrate for a stream (introspection).
func (n *Node) RecvRate(sid uint32) (aimdBps, incomingBps float64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.streams[sid]
	if s == nil || s.rx == nil {
		return 0, 0, false
	}
	return s.rx.aimd.Rate(), s.rx.meter.BitrateBps(n.cfg.Clock.Now()), true
}
