package node

import (
	"slices"
	"time"

	"livenet/internal/gcc"
	"livenet/internal/gop"
	"livenet/internal/media"
	"livenet/internal/rtp"
)

// rtxRing retains the last N packets of a stream (as received, marshaled)
// for NACK-triggered retransmission.
type rtxRing struct {
	slots []rtxSlot
}

type rtxSlot struct {
	seq   uint16
	valid bool
	data  []byte
}

func newRTXRing(size int) *rtxRing {
	return &rtxRing{slots: make([]rtxSlot, size)}
}

func (r *rtxRing) put(seq uint16, data []byte) {
	s := &r.slots[int(seq)%len(r.slots)]
	s.seq = seq
	s.valid = true
	s.data = append(s.data[:0], data...)
}

func (r *rtxRing) get(seq uint16) ([]byte, bool) {
	s := &r.slots[int(seq)%len(r.slots)]
	if !s.valid || s.seq != seq {
		return nil, false
	}
	return s.data, true
}

// hole tracks one missing sequence number on the slow path.
type hole struct {
	firstSeen time.Duration
	lastNACK  time.Duration
	retries   int
}

// recvState is the per-stream slow-path receiver: loss detection with
// 50 ms hole scans + NACK, ordered delivery into the frame assembler and
// GoP cache, and the receiver side of GCC.
type recvState struct {
	upstream int

	haveHighest bool
	highest     uint16
	expected    uint16 // next seq for ordered delivery
	holes       map[uint16]*hole
	buffer      map[uint16][]byte // out-of-order packets awaiting delivery
	// free recycles buffer storage: flushed packets return their slices
	// here and the next buffered packet reuses one, so steady-state
	// ordered delivery allocates nothing.
	free [][]byte

	received uint64
	lostxRR  uint64 // holes abandoned, cumulative

	// RR window accounting.
	lastRRHighest  uint16
	lastRRReceived uint64
	lastRRLost     uint64

	// GCC receiver side.
	ia    gcc.InterArrival
	trend *gcc.TrendlineEstimator
	aimd  *gcc.AIMD
	meter *gcc.RateMeter

	assembler  *gop.Assembler
	lastReport time.Duration
}

func (n *Node) newRecvState(upstream int) *recvState {
	return &recvState{
		upstream:  upstream,
		holes:     make(map[uint16]*hole),
		buffer:    make(map[uint16][]byte),
		trend:     gcc.NewTrendlineEstimator(),
		aimd:      gcc.NewAIMD(n.cfg.InitialRateBps, n.cfg.MinRateBps, n.cfg.MaxRateBps),
		meter:     gcc.NewRateMeter(0),
		assembler: gop.NewAssembler(64),
	}
}

// bufGet copies data into recycled (or fresh) buffer storage.
func (r *recvState) bufGet(data []byte) []byte {
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free = r.free[:n-1]
		return append(b[:0], data...)
	}
	return append([]byte(nil), data...)
}

// bufPut returns a flushed packet's storage to the free list.
func (r *recvState) bufPut(b []byte) {
	if cap(b) > 0 && len(r.free) < 128 {
		r.free = append(r.free, b)
	}
}

// isPendingHole reports whether seq is a known hole (so an arriving copy
// is a retransmission that downstream NACKers are waiting for).
func (r *recvState) isPendingHole(seq uint16) bool {
	if r == nil {
		return false
	}
	_, ok := r.holes[seq]
	return ok
}

// slowPathReceive is the copy-to-slow-path step of §5.1.
// Called with mu held.
func (n *Node) slowPathReceive(s *stream, from int, sendTime10us uint32, rtpData []byte, pkt *rtp.Packet) {
	if s.rx == nil {
		s.rx = n.newRecvState(from)
		s.rx.assembler.OnFrame = func(af gop.AssembledFrame) {}
	}
	r := s.rx
	now := n.cfg.Clock.Now()
	seq := pkt.SequenceNumber

	// GCC receiver side: inter-arrival sample per packet group. Only the
	// active leg feeds the estimator: during a make-before-break dual
	// feed (and an old leg's post-splice grace) the other leg rides a
	// path with a different base delay, and interleaving the two reads
	// as delay oscillation — the trendline would signal overuse and
	// collapse the rate of a perfectly healthy link.
	if from == r.upstream {
		r.meter.Add(now, len(rtpData))
		sendTime := time.Duration(sendTime10us) * 10 * time.Microsecond
		if sample, ok := r.ia.Add(sendTime, now); ok {
			sig := r.trend.Update(sample, now)
			r.aimd.Update(sig, r.meter.BitrateBps(now), now)
		}
	}

	// Retransmission history so downstream NACKs can be served.
	s.rtx.put(seq, rtpData)

	// Sequence tracking.
	if !r.haveHighest {
		r.haveHighest = true
		r.highest = seq
		r.expected = seq
		// The first packet seen need not be the first one sent. If it sits
		// some way into its frame, the packets before it were lost on the
		// way (the head of a GoP prime, say): holes like any other, or the
		// GoP cache here and below would start inside the frame, and every
		// viewer primed from one would wait for the next GoP.
		var h media.FrameHeader
		if h.Unmarshal(pkt.Payload) == nil && h.PktIdx > 0 && h.PktIdx < h.PktCount {
			r.expected = seq - h.PktIdx
			for q := r.expected; q != seq; q++ {
				r.holes[q] = &hole{firstSeen: now}
			}
		}
		// RR windows start at the join point, not at sequence 0 --
		// otherwise the first report declares everything before the join
		// as lost and the loss-based controller collapses.
		r.lastRRHighest = seq - 1
		r.received++
		n.deliverOrdered(s, r, seq, rtpData, pkt)
		return
	}
	switch {
	case rtp.SeqLess(r.highest, seq):
		// New highest: everything between highest+1 and seq-1 is missing.
		if gap := rtp.SeqDiff(r.highest, seq); gap > 512 {
			// Stream discontinuity (e.g. source restart): resynchronize
			// rather than declaring hundreds of holes.
			r.holes = make(map[uint16]*hole)
			r.buffer = make(map[uint16][]byte)
			r.expected = seq
		} else {
			for q := r.highest + 1; q != seq; q++ {
				if _, dup := r.buffer[q]; !dup {
					r.holes[q] = &hole{firstSeen: now}
				}
			}
		}
		r.highest = seq
		r.received++
		n.deliverOrdered(s, r, seq, rtpData, pkt)
	case r.holes[seq] != nil:
		// Hole recovered (by retransmission or late arrival).
		delete(r.holes, seq)
		n.tel.holesRecovered.Inc()
		r.received++
		n.deliverOrdered(s, r, seq, rtpData, pkt)
	default:
		// Duplicate or packet older than the delivery front: ignore.
	}
}

// deliverOrdered buffers the packet and flushes the in-order prefix into
// the framing control and GoP cache. Called with mu held.
func (n *Node) deliverOrdered(s *stream, r *recvState, seq uint16, rtpData []byte, pkt *rtp.Packet) {
	if rtp.SeqLess(seq, r.expected) {
		return // already past the delivery front (late duplicate)
	}
	// Buffer a copy: the caller's buffer may belong to the transport.
	r.buffer[seq] = r.bufGet(rtpData)
	n.flushOrdered(s, r)
}

// flushOrdered advances the delivery front over buffered packets and
// abandoned holes. Called with mu held.
func (n *Node) flushOrdered(s *stream, r *recvState) {
	var scratch rtp.Packet
	for {
		if data, ok := r.buffer[r.expected]; ok {
			if err := scratch.Unmarshal(data); err == nil {
				var h media.FrameHeader
				if err := h.Unmarshal(scratch.Payload); err == nil {
					s.cache.Insert(h, r.expected, data)
				}
				r.assembler.Push(&scratch)
			}
			delete(r.buffer, r.expected)
			r.bufPut(data)
			r.expected++
			continue
		}
		// A hole at the front blocks delivery until recovered or abandoned.
		if _, isHole := r.holes[r.expected]; isHole {
			return
		}
		// Neither buffered nor a live hole: if it is before the highest
		// seq it was abandoned — skip it; otherwise we are caught up.
		if r.expected == r.highest+1 || !rtp.SeqLess(r.expected, r.highest) {
			return
		}
		r.expected++
	}
}

// scheduleScan arms the periodic slow-path scan.
func (n *Node) scheduleScan() {
	n.scanTimer = n.cfg.Clock.AfterFunc(n.cfg.NACKInterval, n.scan)
}

// scan runs every NACKInterval: detects holes to NACK, abandons hopeless
// ones, and emits periodic RR/REMB feedback (§5.1: "each node examines
// holes in the sequence numbers of received RTP packets every 50 ms").
func (n *Node) scan() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	now := n.cfg.Clock.Now()
	type nackOut struct {
		to   int
		data []byte
	}
	var nacks []nackOut
	// Scan streams in sorted-ID order: the control traffic emitted below
	// feeds the packet schedule, and map iteration order would make the
	// whole simulation nondeterministic.
	sids := n.scanSIDs[:0]
	for sid := range n.streams {
		sids = append(sids, sid)
	}
	slices.Sort(sids)
	n.scanSIDs = sids
	for _, sid := range sids {
		s := n.streams[sid]
		r := s.rx
		if r == nil {
			continue
		}
		// Reordering grace: a hole younger than this is likely a packet
		// still in flight (jitter reordering), not a loss.
		grace := n.cfg.NACKInterval / 3
		var lost []uint16
		for seq, h := range r.holes {
			if h.retries >= n.cfg.MaxNACKRetries {
				delete(r.holes, seq)
				r.lostxRR++
				n.tel.holesAbandoned.Inc()
				continue
			}
			if now-h.firstSeen < grace {
				continue
			}
			if now-h.lastNACK >= n.cfg.NACKInterval {
				lost = append(lost, seq)
				h.lastNACK = now
				h.retries++
			}
		}
		if len(lost) > 0 {
			slices.Sort(lost) // holes is a map; canonicalize the NACK order
			msg := rtp.MarshalNACK(&rtp.NACK{
				SenderSSRC: uint32(n.id),
				MediaSSRC:  s.id,
				Lost:       lost,
			}, nil)
			nacks = append(nacks, nackOut{to: r.upstream, data: frameRTCP(msg)})
			n.tel.nacksSent.Inc()
		}
		// Abandoning holes may unblock ordered delivery.
		n.flushOrdered(s, r)

		// Periodic feedback.
		if now-r.lastReport >= n.cfg.ReportInterval {
			r.lastReport = now
			nacks = append(nacks, nackOut{to: r.upstream, data: n.buildFeedback(s, r, now)})
		}
	}
	// Failure detection (§4.3): an established stream that has gone silent
	// past UpstreamTimeout fast-switches to a backup path (re-querying the
	// Brain when exhausted); a stuck establishment past its retry deadline
	// is re-driven the same way.
	for _, sid := range sids {
		s := n.streams[sid]
		if s.producer || (len(s.clients) == 0 && len(s.subscribers) == 0 && len(s.pendingSubs) == 0) {
			continue
		}
		// Guard timer (make-before-break): a migration whose new leg has
		// not spliced by the deadline is abandoned. The active leg was
		// never touched, and if it too has failed the reactive ladder
		// below recovers it exactly as before the migration started.
		if s.mig != nil && now >= s.mig.deadline {
			n.abortMigrationLocked(s)
		}
		if s.oldLegFrom >= 0 && now >= s.oldLegUntil {
			s.oldLegFrom = -1
		}
		switch {
		case s.established && n.cfg.UpstreamTimeout > 0 && s.lastData > 0 &&
			now-s.lastData > n.cfg.UpstreamTimeout:
			n.tel.upstreamTimeouts.Inc()
			n.tel.fastSwitches.Inc()
			n.tel.fastSwitchesUnplanned.Inc()
			n.tel.pathSwitches.Inc()
			s.lastData = now // re-arm the detector across the switch
			n.switchPathLocked(s)
		case !s.established && !s.lookupPending && s.retryAt > 0 && now >= s.retryAt:
			s.retryAt = 0
			n.switchPathLocked(s)
		}
	}
	// Garbage-collect producer streams whose broadcaster went silent: the
	// stream ends, downstream nodes are left to tear down via their own
	// idle paths, and Stream Management is told to drop the SIB entry.
	var ended []uint32
	for _, sid := range sids {
		s := n.streams[sid]
		if s.producer && s.lastData > 0 && now-s.lastData > n.cfg.StreamIdleTimeout {
			delete(n.streams, sid)
			ended = append(ended, sid)
		}
	}
	n.scheduleScan()
	n.mu.Unlock()
	for _, o := range nacks {
		n.sendControl(o.to, o.data)
	}
	if n.cfg.OnStreamEnded != nil {
		for _, sid := range ended {
			n.cfg.OnStreamEnded(sid)
		}
	}
}

func frameRTCP(rtcp []byte) []byte {
	buf := make([]byte, 0, 1+len(rtcp))
	buf = append(buf, 2) // wire.MsgRTCP
	return append(buf, rtcp...)
}

// buildFeedback produces a compound RR+REMB frame for the upstream node.
// Called with mu held.
func (n *Node) buildFeedback(s *stream, r *recvState, now time.Duration) []byte {
	// Fraction lost counts only holes abandoned in this window (deemed
	// unrecoverable). Open holes are packets still in flight (reordering,
	// catch-up bursts, pending retransmissions) and must not be reported
	// as loss, or the loss-based controller spirals down on phantoms.
	expected := uint64(r.highest - r.lastRRHighest)
	lost := r.lostxRR - r.lastRRLost
	var fraction float64
	if expected > 0 && lost > 0 {
		fraction = float64(lost) / float64(expected)
		if fraction > 1 {
			fraction = 1
		}
	}
	r.lastRRHighest = r.highest
	r.lastRRReceived = r.received
	r.lastRRLost = r.lostxRR

	rr := rtp.MarshalRR(&rtp.ReceiverReport{
		SenderSSRC:     uint32(n.id),
		MediaSSRC:      s.id,
		FractionLost:   uint8(fraction * 256),
		CumulativeLost: uint32(r.lostxRR),
		HighestSeq:     uint32(r.highest),
	}, nil)
	remb := rtp.MarshalREMB(&rtp.REMB{
		SenderSSRC: uint32(n.id),
		BitrateBps: uint64(r.aimd.Rate()),
		SSRCs:      []uint32{s.id},
	}, nil)
	buf := make([]byte, 0, 1+len(rr)+len(remb))
	buf = append(buf, 2) // wire.MsgRTCP
	buf = append(buf, rr...)
	return append(buf, remb...)
}

// onRTCP handles feedback from a downstream node: NACK triggers
// retransmission; RR/REMB update the sender-side GCC for that link.
// Called with mu held. data excludes the wire tag and may be compound.
func (n *Node) onRTCP(from int, data []byte) {
	for len(data) >= 4 {
		// RTCP length field: (words+1)*4 bytes.
		words := int(uint16(data[2])<<8 | uint16(data[3]))
		pktLen := (words + 1) * 4
		if pktLen <= 0 || pktLen > len(data) {
			pktLen = len(data)
		}
		n.handleRTCPPacket(from, data[:pktLen])
		data = data[pktLen:]
	}
}

func (n *Node) handleRTCPPacket(from int, data []byte) {
	pt, fmtField := rtp.RTCPKind(data)
	switch {
	case pt == 205 && fmtField == 1: // Generic NACK
		var nack rtp.NACK
		if err := rtp.UnmarshalNACK(&nack, data); err != nil {
			return
		}
		n.tel.nacksReceived.Inc()
		s := n.streams[nack.MediaSSRC]
		if s == nil {
			return
		}
		c := s.clients[from] // nil for overlay downstreams
		for _, seq := range nack.Lost {
			if c != nil && c.wasDropped(seq) {
				// Deliberately shed, not lost: retransmitting it would
				// re-add exactly the load the dropper removed.
				continue
			}
			if buf, ok := s.rtx.get(seq); ok {
				n.forwardCopy(from, buf, gcc.ClassRTX, 0, true, nack.MediaSSRC, seq)
				n.tel.retransmits.Inc()
			}
			// Not in history: the downstream node will retry; by then our
			// own recovery may have filled it (the A→B→C example of §3).
		}
	case pt == 201: // Receiver Report → loss-based sender control
		var rr rtp.ReceiverReport
		if err := rtp.UnmarshalRR(&rr, data); err != nil {
			return
		}
		fraction := float64(rr.FractionLost) / 256
		if s := n.streams[rr.MediaSSRC]; s != nil {
			if c := s.clients[from]; c != nil {
				// A viewer's loss fraction includes the gaps our own
				// frame dropper punched; only real loss may drive the
				// loss-based controller.
				fraction = c.adjustLoss(fraction)
			}
		}
		l := n.link(from)
		l.ctrl.OnReceiverReport(fraction)
		l.pacer.SetRate(l.ctrl.PacingRate())
	case pt == 206 && fmtField == 15: // REMB → delay-based estimate
		var remb rtp.REMB
		if err := rtp.UnmarshalREMB(&remb, data); err != nil {
			return
		}
		l := n.link(from)
		l.ctrl.OnREMB(float64(remb.BitrateBps))
		l.pacer.SetRate(l.ctrl.PacingRate())
	}
}
