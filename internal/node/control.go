package node

import (
	"errors"
	"time"

	"livenet/internal/gcc"
	"livenet/internal/gop"
	"livenet/internal/media"
	"livenet/internal/rtp"
	"livenet/internal/wire"
)

// ErrNoPath is reported when the Brain returns no usable path.
var ErrNoPath = errors.New("node: no path available")

// Catch-up pacing gains for GoP cache primes: a joining subscriber's
// backlog is transferred as a fast burst so live packets queued behind it
// are not delayed into apparent loss. Overlay links have more headroom
// than client access links.
const (
	overlayPrimeGain = 8.0
	clientPrimeGain  = 2.5
)

// clientState tracks one locally attached viewer (consumer role).
type clientState struct {
	id       int
	streamID uint32

	attachTime  time.Duration
	firstSent   bool
	stalls      int // cumulative stall count from the client's last report
	// switchStalls is the cumulative count at the last quality-triggered
	// path switch; reports are cumulative, so switching decisions must be
	// made on the delta since then, not on the raw counter.
	switchStalls int
	dropToNextI  bool // GoP-level dropping active: discard until next I frame

	// pressureSince tracks how long the client's send queue has stayed
	// past the frame-drop threshold (for bitrate down-switching, §5.2).
	pressureSince  time.Duration
	underPressure  bool
	switchInFlight bool

	// Deliberate drops punch sequence gaps the viewer cannot tell from
	// network loss: its RR loss fraction and its NACKs are both computed
	// from the gaps. Track what the dropper shed so that feedback about
	// those packets is discounted — otherwise shedding reads as heavy
	// loss, the loss-based controller collapses the client pacer, and
	// the lower rate forces more shedding (a drop/starve spiral that
	// bottoms out at the minimum rate and never recovers).
	droppedPkts int // deliberately dropped since the last RR
	sentPkts    int // forwarded since the last RR
	dropCur     map[uint16]struct{}
	dropPrev    map[uint16]struct{} // previous generation (bounded memory)

	// iStart is the first sequence number of the newest I frame seen,
	// so a GoP-drop flush can spare it: shedding the only decodable
	// frame in the queue would leave a starved viewer with nothing to
	// complete — playback (and the rate feedback loop) would freeze.
	iStart     uint16
	haveIStart bool
}

// noteDrop records one deliberately dropped packet.
func (c *clientState) noteDrop(seq uint16) {
	c.droppedPkts++
	if c.dropCur == nil {
		c.dropCur = make(map[uint16]struct{}, 256)
	} else if len(c.dropCur) >= 2048 {
		c.dropPrev = c.dropCur
		c.dropCur = make(map[uint16]struct{}, 256)
	}
	c.dropCur[seq] = struct{}{}
}

// wasDropped reports whether seq was recently shed on purpose.
func (c *clientState) wasDropped(seq uint16) bool {
	if _, ok := c.dropCur[seq]; ok {
		return true
	}
	_, ok := c.dropPrev[seq]
	return ok
}

// adjustLoss discounts deliberate drops from a viewer's reported loss
// fraction and resets the per-report counters.
func (c *clientState) adjustLoss(fraction float64) float64 {
	dropped, sent := c.droppedPkts, c.sentPkts
	c.droppedPkts, c.sentPkts = 0, 0
	if dropped == 0 || dropped+sent == 0 {
		return fraction
	}
	fraction -= float64(dropped) / float64(dropped+sent)
	if fraction < 0 {
		return 0
	}
	return fraction
}

// --- Viewer attachment: Algorithm 1 ---

// AttachViewer handles a viewing request at a consumer node (Algorithm 1).
// If the stream is already flowing here with cached recent frames, the
// viewer is served immediately from the GoP cache (a local hit).
// Otherwise the node looks up a path at the Streaming Brain and
// establishes it by backtracking subscriptions toward the producer.
// It returns whether the request was a local hit.
func (n *Node) AttachViewer(clientID int, sid uint32) bool {
	n.mu.Lock()
	now := n.cfg.Clock.Now()
	c := &clientState{id: clientID, streamID: sid, attachTime: now}

	s := n.streams[sid]
	if s != nil && s.established && s.cache.HasRecentGoP() {
		// Algorithm 1 lines 1–3: local hit.
		s.addClient(c)
		n.tel.localHits.Inc()
		n.primeClientLocked(c, s.cache.StartupPackets())
		n.mu.Unlock()
		return true
	}

	if s == nil {
		s = n.newStream(sid)
	}
	s.addClient(c)
	n.ensureSubscribedLocked(s)
	n.mu.Unlock()
	return false
}

// primeClientLocked replays cached GoP packets to a client (fast
// startup). Called with mu held: replay aliases GoP cache storage, which
// may be recycled by the next Insert, so the frames must be copied out
// before the lock is released.
func (n *Node) primeClientLocked(c *clientState, replay []gop.CachedPacket) {
	now := n.cfg.Clock.Now()
	for _, cp := range replay {
		class := gcc.ClassVideo
		if cp.Type == media.FrameAudio {
			class = gcc.ClassAudio
		}
		frame := wire.FrameRTP(make([]byte, 0, wire.RTPHeaderLen+len(cp.Data)), 0, cp.Data)
		l := n.link(c.id)
		l.pacer.Push(gcc.Item[outPacket]{Class: class, Size: len(frame), Gain: clientPrimeGain, Payload: outPacket{to: c.id, frame: frame, at: now}})
		n.kickPacer(l)
	}
	if len(replay) > 0 {
		n.noteFirstPacket(c)
	}
}

// noteFirstPacket records the first-packet delay for a client.
// Called with mu held.
func (n *Node) noteFirstPacket(c *clientState) {
	if c.firstSent {
		return
	}
	c.firstSent = true
	if n.OnFirstPacket != nil {
		delay := n.cfg.Clock.Now() - c.attachTime
		cb := n.OnFirstPacket
		id, sid := c.id, c.streamID
		// Escape the node lock: the callback may re-enter the node.
		n.cfg.Clock.AfterFunc(0, func() { cb(id, sid, delay) })
	}
}

// DetachViewer removes a viewer; if the stream has no remaining local
// viewers or downstream subscribers, the node unsubscribes upstream.
func (n *Node) DetachViewer(clientID int, sid uint32) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.streams[sid]
	if s == nil {
		return
	}
	s.dropClient(clientID)
	n.maybeTeardownLocked(s)
}

// maybeTeardownLocked prunes a stream with no consumers left.
func (n *Node) maybeTeardownLocked(s *stream) {
	if s.producer || len(s.clients) > 0 || len(s.subscribers) > 0 {
		return
	}
	n.abortMigrationLocked(s)
	if s.established && s.upstream >= 0 {
		u := wire.Unsubscribe{StreamID: s.id, Requester: uint16(n.id)}
		n.sendControl(s.upstream, u.Marshal(nil))
	}
	delete(n.streams, s.id)
}

// ensureSubscribedLocked starts path lookup + establishment once.
func (n *Node) ensureSubscribedLocked(s *stream) {
	if s.established || s.lookupPending || n.cfg.PathLookup == nil {
		return
	}
	s.lookupPending = true
	s.establishStart = n.cfg.Clock.Now()
	n.tel.pathLookups.Inc()
	sid := s.id
	lookup := n.cfg.PathLookup
	// Issue the lookup outside the node lock: the Brain may call back
	// synchronously and re-enter the node.
	n.cfg.Clock.AfterFunc(0, func() {
		lookup(sid, n.id, func(paths [][]int, err error) {
			n.onPaths(sid, paths, err)
		})
	})
}

// InstallPaths lets the Brain proactively push paths for a popular stream
// before any viewer arrives (§4.4 "for popular broadcasters, up-to-date
// overlay paths are proactively pushed to all overlay nodes"). The node
// establishes the subscription immediately so the first viewer is a
// local hit.
func (n *Node) InstallPaths(sid uint32, paths [][]int) {
	n.onPaths(sid, paths, nil)
}

// onPaths handles the Brain's path response and establishes the best path.
func (n *Node) onPaths(sid uint32, paths [][]int, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.streams[sid]
	if s == nil {
		s = n.newStream(sid)
	}
	s.lookupPending = false
	if s.established {
		return
	}
	if err != nil || len(paths) == 0 {
		// Brain unreachable or answerless: serve from the node-local path
		// cache (§4.3). With nothing cached the viewers stay parked and the
		// slow-path scan retries after EstablishTimeout.
		if len(s.cachedPaths) > 0 {
			n.tel.cacheFallbacks.Inc()
			best := s.cachedPaths[0]
			s.backupPaths = append(s.backupPaths[:0], s.cachedPaths[1:]...)
			n.establishLocked(s, best)
			return
		}
		s.retryAt = n.cfg.Clock.Now() + n.cfg.EstablishTimeout
		return
	}
	best := paths[0]
	s.backupPaths = paths[1:]
	s.cachedPaths = append(s.cachedPaths[:0], paths...)
	n.establishLocked(s, best)
}

// establishLocked sends a Subscribe along the reverse route (§4.4): the
// consumer contacts the previous hop; each hop either has the stream
// (cache hit — stop backtracking) or keeps going toward the producer.
func (n *Node) establishLocked(s *stream, path []int) {
	if len(path) == 0 {
		return
	}
	s.requestedPath = append(s.requestedPath[:0], path...)
	// Reverse route: previous hop first, then the rest toward the producer.
	if len(path) == 1 {
		// Single-node path: we are (or will be) the producer; nothing to do.
		s.retryAt = 0
		return
	}
	// Re-arm in case the Subscribe (or its ack) is lost to a failure.
	s.retryAt = n.cfg.Clock.Now() + n.cfg.EstablishTimeout
	prevHop := path[len(path)-2]
	rest := make([]uint16, 0, len(path)-2)
	for i := len(path) - 3; i >= 0; i-- {
		rest = append(rest, uint16(path[i]))
	}
	sub := wire.Subscribe{StreamID: s.id, Requester: uint16(n.id), Path: rest}
	n.sendControl(prevHop, sub.Marshal(nil))
}

// onSubscribe handles a downstream node's subscription (with mu held).
func (n *Node) onSubscribe(from int, data []byte) {
	var sub wire.Subscribe
	if err := sub.Unmarshal(data); err != nil {
		return
	}
	if n.draining {
		// Planned decommission: refuse new subscriptions so the drain
		// converges. The requester falls back to its remaining candidates
		// or a fresh Brain lookup (which excludes draining relays).
		rej := wire.SubReject{StreamID: sub.StreamID}
		n.sendControl(from, rej.Marshal(nil))
		return
	}
	s := n.streams[sub.StreamID]
	if s != nil && s.established {
		// Cache hit (or we are the producer): stop backtracking, add the
		// requester to the FIB, prime it from the GoP cache, and ack with
		// our actual upstream path so the requester learns the real
		// (possibly long-chain) path.
		s.addSubscriber(int(sub.Requester))
		n.tel.cacheHitPrimes.Inc()
		for _, cp := range s.cache.StartupPackets() {
			class := gcc.ClassVideo
			if cp.Type == media.FrameAudio {
				class = gcc.ClassAudio
			}
			n.forwardCopy(int(sub.Requester), cp.Data, class, overlayPrimeGain, false, s.id, cp.SeqNum)
		}
		ackPath := make([]uint16, 0, len(s.fullPath))
		for _, h := range s.fullPath {
			ackPath = append(ackPath, uint16(h))
		}
		ack := wire.SubAck{StreamID: sub.StreamID, Path: ackPath}
		n.sendControl(int(sub.Requester), ack.Marshal(nil))
		return
	}
	// We do not have the stream yet: record the subscriber, remember to
	// ack it once we are established, and keep backtracking.
	if s == nil {
		s = n.newStream(sub.StreamID)
	}
	s.addSubscriber(int(sub.Requester))
	s.pendingSubs = append(s.pendingSubs, sub.Requester)
	if s.lookupPending {
		return // establishment already under way
	}
	if len(sub.Path) == 0 {
		// We are the designated producer hop but have no stream yet (the
		// broadcaster has not started). The subscription stays parked; data
		// flows when the upload begins.
		return
	}
	next := int(sub.Path[0])
	rest := sub.Path[1:]
	fwd := wire.Subscribe{StreamID: sub.StreamID, Requester: uint16(n.id), Path: rest}
	s.lookupPending = true // reuse as "establishment in flight"
	n.sendControl(next, fwd.Marshal(nil))
}

// onSubAck completes establishment (with mu held).
func (n *Node) onSubAck(from int, data []byte) {
	var ack wire.SubAck
	if err := ack.Unmarshal(data); err != nil {
		return
	}
	s := n.streams[ack.StreamID]
	if s == nil {
		return
	}
	if m := s.mig; m != nil && from == m.prevHop && s.established && from != s.upstream {
		// Make-before-break: the new leg is up. Record it and keep feeding
		// from the old leg; the splice happens in onRTP on the next GoP
		// boundary the new leg delivers.
		m.acked = true
		m.upstream = from
		m.fullPath = m.fullPath[:0]
		for _, h := range ack.Path {
			m.fullPath = append(m.fullPath, int(h))
		}
		m.fullPath = append(m.fullPath, n.id)
		return
	}
	if s.established {
		// Unsolicited ack: an established stream has no Subscribe in
		// flight (every reactive switch clears established first; a
		// migration leg was handled above), so this is a parked
		// subscription being flushed after we already established
		// elsewhere, or a stale retransmit. Accepting it would overwrite
		// a healthy upstream — two nodes whose pushed paths run through
		// each other would splice into a closed forwarding cycle that
		// the reverse-path prune then mistakes for the live feed.
		// Withdraw instead so the acker drops us from its FIB.
		if from != s.upstream {
			u := wire.Unsubscribe{StreamID: s.id, Requester: uint16(n.id)}
			n.sendControl(from, u.Marshal(nil))
		}
		return
	}
	s.lookupPending = false
	s.retryAt = 0
	s.established = true
	s.upstream = from
	// Establishment counts as liveness: the silence detector starts its
	// window here, so a path that acks but never delivers is also caught.
	s.lastData = n.cfg.Clock.Now()
	s.fullPath = s.fullPath[:0]
	for _, h := range ack.Path {
		s.fullPath = append(s.fullPath, int(h))
	}
	s.fullPath = append(s.fullPath, n.id)

	// Ack our own pending downstream subscribers with the (now known)
	// actual path.
	n.ackPendingSubsLocked(s)
	if n.OnEstablished != nil {
		cb := n.OnEstablished
		path := append([]int(nil), s.fullPath...)
		sid := s.id
		n.cfg.Clock.AfterFunc(0, func() { cb(sid, path, false) })
	}
}

// onUnsubscribe removes a downstream subscriber (with mu held).
func (n *Node) onUnsubscribe(from int, data []byte) {
	var u wire.Unsubscribe
	if err := u.Unmarshal(data); err != nil {
		return
	}
	s := n.streams[u.StreamID]
	if s == nil {
		return
	}
	s.dropSubscriber(int(u.Requester))
	n.maybeTeardownLocked(s)
}

// --- Fine-grained stream control (§5.2) ---

// forwardToClient forwards a packet to a local viewer with proactive
// frame dropping: when the client's send queue builds past the threshold
// the node drops unreferenced B frames first, then P frames, then whole
// GoPs. Called with mu held from the onRTP fan-out.
func (n *Node) forwardToClient(s *stream, c *clientState, src *fanoutSrc, pkt *rtp.Packet) {
	l := n.link(c.id)
	var h media.FrameHeader
	haveHeader := h.Unmarshal(pkt.Payload) == nil

	if haveHeader && h.Type != media.FrameAudio {
		if h.Type == media.FrameI && h.PktIdx == 0 {
			c.iStart = pkt.SequenceNumber
			c.haveIStart = true
		}
		qd := l.pacer.QueueDelay()
		th := n.cfg.FrameDropThreshold
		n.trackPressure(s, c, qd > th)
		switch {
		case c.dropToNextI || qd > 3*th:
			if h.Type == media.FrameI {
				if c.dropToNextI {
					c.dropToNextI = false // resume at the fresh I frame
				}
			} else {
				if !c.dropToNextI {
					c.dropToNextI = true
					// Shed the queued backlog except the newest I frame
					// (the only thing a starved viewer can still decode);
					// shed packets were counted as sent, so move them to
					// the drop ledger.
					sid := s.id
					l.pacer.DropClassFunc(gcc.ClassVideo, func(it gcc.Item[outPacket]) bool {
						if it.Payload.sid == sid {
							if c.haveIStart && !rtp.SeqLess(it.Payload.seq, c.iStart) {
								return false
							}
							c.noteDrop(it.Payload.seq)
							if c.sentPkts > 0 {
								c.sentPkts--
							}
						}
						dropRelease(it)
						return true
					})
					n.tel.droppedGoPs.Inc()
				}
				c.noteDrop(pkt.SequenceNumber)
				return
			}
		case qd > 2*th:
			if h.Type == media.FrameP || h.Type == media.FrameB || h.Type == media.FrameBUnref {
				if h.Type == media.FrameP {
					n.tel.droppedPFrames.Inc()
				} else {
					n.tel.droppedBFrames.Inc()
				}
				c.noteDrop(pkt.SequenceNumber)
				return
			}
		case qd > th:
			if h.Type == media.FrameBUnref {
				n.tel.droppedBFrames.Inc()
				c.noteDrop(pkt.SequenceNumber)
				return
			}
		}
	}

	class, gain := gcc.ClassVideo, 0.0
	if haveHeader {
		switch h.Type {
		case media.FrameAudio:
			class = gcc.ClassAudio
		case media.FrameI:
			gain = gcc.IFramePacingGain
		}
	}
	n.pushFrom(l, src, class, gain, false, false)
	c.sentPkts++
	n.kickPacer(l)
	n.noteFirstPacket(c)
}

// trackPressure implements the bitrate down-switch of §5.2: when a
// client's send queue stays past the drop threshold for
// BitrateSwitchAfter, the consumer resubscribes the client to the next
// lower simulcast rendition on its behalf. Called with mu held.
func (n *Node) trackPressure(s *stream, c *clientState, pressured bool) {
	now := n.cfg.Clock.Now()
	if !pressured {
		c.underPressure = false
		return
	}
	if !c.underPressure {
		c.underPressure = true
		c.pressureSince = now
		return
	}
	if c.switchInFlight || n.cfg.LowerRendition == nil {
		return
	}
	if now-c.pressureSince < n.cfg.BitrateSwitchAfter {
		return
	}
	lower, ok := n.cfg.LowerRendition(s.id)
	if !ok {
		return // already at the lowest rendition
	}
	c.switchInFlight = true
	n.tel.bitrateSwitches.Inc()
	clientID, oldSID := c.id, s.id
	// Escape the lock: SwitchClientStream takes it.
	n.cfg.Clock.AfterFunc(0, func() {
		done := n.SwitchClientStream(clientID, oldSID, lower)
		_ = done
	})
}

// ReportClientQuality lets the client layer report playback quality; on
// repeated stalls the consumer switches to an alternative path (the
// long-chain mitigation of §4.4 and the local re-route of §7.1).
func (n *Node) ReportClientQuality(clientID int, sid uint32, stalls int) {
	n.mu.Lock()
	s := n.streams[sid]
	if s == nil {
		n.mu.Unlock()
		return
	}
	c := s.clients[clientID]
	if c == nil {
		n.mu.Unlock()
		return
	}
	c.stalls = stalls
	// The client reports a cumulative counter: only stalls accrued since
	// the last quality switch argue for another one (otherwise a single
	// threshold crossing would re-trigger a switch on every later report —
	// a path-switch storm whose resubscribe backfills congest the very
	// last mile that is stalling).
	if stalls-c.switchStalls < n.cfg.StallSwitchThreshold || !s.established {
		n.mu.Unlock()
		return
	}
	c.switchStalls = stalls
	n.tel.pathSwitches.Inc()
	// Switch to the next backup path, or re-query the Brain when exhausted.
	if len(s.backupPaths) > 0 {
		next := s.backupPaths[0]
		s.backupPaths = s.backupPaths[1:]
		n.resubscribeLocked(s, next)
		n.mu.Unlock()
		return
	}
	s.established = false
	s.lookupPending = false
	n.ensureSubscribedLocked(s)
	n.mu.Unlock()
}

// switchPathLocked moves a stream to its next backup path, re-querying
// the Brain when backups are exhausted (the fast path switch of §4.3;
// the same ladder as ReportClientQuality but driven by upstream silence
// or a stuck establishment instead of viewer stall reports).
func (n *Node) switchPathLocked(s *stream) {
	// A reactive switch supersedes any in-flight planned migration.
	n.abortMigrationLocked(s)
	if s.upstream < 0 && len(s.requestedPath) >= 2 {
		// A Subscribe may still be parked at the silent previous hop;
		// withdraw it so we do not remain in its FIB.
		u := wire.Unsubscribe{StreamID: s.id, Requester: uint16(n.id)}
		n.sendControl(s.requestedPath[len(s.requestedPath)-2], u.Marshal(nil))
	}
	if len(s.backupPaths) > 0 {
		next := s.backupPaths[0]
		s.backupPaths = s.backupPaths[1:]
		n.resubscribeLocked(s, next)
		return
	}
	if s.upstream >= 0 {
		u := wire.Unsubscribe{StreamID: s.id, Requester: uint16(n.id)}
		n.sendControl(s.upstream, u.Marshal(nil))
	}
	s.established = false
	s.upstream = -1
	s.rx = nil
	s.fanoutGate = false
	s.oldLegFrom = -1
	s.lookupPending = false
	n.ensureSubscribedLocked(s)
}

// resubscribeLocked tears down the current upstream and establishes path.
func (n *Node) resubscribeLocked(s *stream, path []int) {
	n.abortMigrationLocked(s)
	if s.upstream >= 0 {
		u := wire.Unsubscribe{StreamID: s.id, Requester: uint16(n.id)}
		n.sendControl(s.upstream, u.Marshal(nil))
	}
	s.established = false
	s.upstream = -1
	s.rx = nil // fresh slow-path state on the new path
	s.fanoutGate = false
	s.oldLegFrom = -1
	n.establishLocked(s, path)
}

// MigrateProducer handles broadcaster mobility (§7.1): when the optimal
// producer node changes, existing overlay paths are preserved by having
// the OLD producer subscribe to the NEW one instead of re-routing every
// downstream path. path is the new-producer→this-node route the Brain
// computed.
func (n *Node) MigrateProducer(sid uint32, path []int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.streams[sid]
	if s == nil || !s.producer {
		return
	}
	s.producer = false
	s.established = false
	s.upstream = -1
	s.rx = nil // fresh slow-path state fed by the new producer
	n.establishLocked(s, path)
}

// SwitchClientStream implements seamless stream switching (§5.2): during
// co-streaming the consumer resubscribes to the new stream on the
// client's behalf and flips forwarding only once a complete GoP of the
// new stream is cached, so the viewer sees no stall. The returned channel
// is closed when the switch completes (for tests and callers that care).
func (n *Node) SwitchClientStream(clientID int, oldSID, newSID uint32) <-chan struct{} {
	done := make(chan struct{})
	n.mu.Lock()
	old := n.streams[oldSID]
	if old == nil || old.clients[clientID] == nil {
		n.mu.Unlock()
		close(done)
		return done
	}
	s := n.streams[newSID]
	if s == nil {
		s = n.newStream(newSID)
	}
	n.ensureSubscribedLocked(s)
	n.mu.Unlock()

	var poll func()
	poll = func() {
		n.mu.Lock()
		ns := n.streams[newSID]
		if ns != nil && ns.established && ns.cache.HasRecentGoP() {
			os := n.streams[oldSID]
			var c *clientState
			if os != nil {
				c = os.clients[clientID]
				os.dropClient(clientID)
				n.maybeTeardownLocked(os)
			}
			if c == nil {
				c = &clientState{id: clientID, attachTime: n.cfg.Clock.Now()}
			}
			c.streamID = newSID
			c.firstSent = true // not a fresh startup; no first-packet event
			ns.addClient(c)
			n.primeClientLocked(c, ns.cache.StartupPackets())
			n.mu.Unlock()
			close(done)
			return
		}
		n.mu.Unlock()
		n.cfg.Clock.AfterFunc(20*time.Millisecond, poll)
	}
	poll()
	return done
}
