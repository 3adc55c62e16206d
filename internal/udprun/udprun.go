// Package udprun runs LiveNet components over real UDP sockets — the
// multi-node deployment mode used by cmd/livenet-node, cmd/livenet-brain
// and cmd/livenet-demo. Each overlay endpoint (node, client, Brain) owns
// one socket; datagrams are prefixed with the sender's overlay ID so the
// node code stays addressed by integer IDs exactly as on the emulator.
//
// The data plane is built for throughput: datagrams ride in pooled,
// refcounted buffers from the socket read to the handler (no per-packet
// allocation or copy), reads and writes are batched into recvmmsg /
// sendmmsg syscall rounds on Linux (single-syscall fallback elsewhere),
// and delivery can be sharded across N workers with per-stream affinity
// (RTP packets hash by SSRC, so each stream keeps FIFO order while
// different streams decode in parallel).
package udprun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"livenet/internal/brain"
	"livenet/internal/node"
	"livenet/internal/pktbuf"
	"livenet/internal/telemetry"
	"livenet/internal/wire"
)

// headerLen is the datagram prefix: sender overlay ID.
const headerLen = 4

// DefaultBatch is the default syscall batching factor: up to this many
// datagrams move per recvmmsg/sendmmsg round.
const DefaultBatch = 16

// shardQueueCap bounds each shard's dispatch queue; packets beyond it
// are dropped (counted in udprun.rx_dropped), exactly as a full socket
// buffer would drop them.
const shardQueueCap = 1024

// ErrUnknownPeer is returned when sending to an unregistered ID.
var ErrUnknownPeer = errors.New("udprun: unknown peer id")

// Options tune an endpoint's data plane. The zero value is the portable
// single-loop configuration every existing caller gets from Listen.
type Options struct {
	// Shards is the number of delivery workers. With 0 or 1 the handler
	// runs inline on the read loop (strictly serial delivery). With N>1,
	// RTP datagrams are dispatched to worker shardOf(SSRC) — per-stream
	// FIFO order is preserved, different streams proceed in parallel —
	// and non-RTP datagrams (control, RTCP, probes) all go to shard 0.
	Shards int
	// Batch is the max datagrams per syscall round (recvmmsg/sendmmsg
	// on Linux). 0 means DefaultBatch; 1 disables batching.
	Batch int
	// Telemetry registers the endpoint's udprun.* instruments (see
	// OBSERVABILITY.md). Nil keeps private unregistered instruments.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Batch <= 0 {
		o.Batch = DefaultBatch
	}
	return o
}

// epInstruments are the endpoint's telemetry handles.
type epInstruments struct {
	rxPackets *telemetry.Counter
	txPackets *telemetry.Counter
	rxBatch   *telemetry.Histogram // datagrams per recvmmsg round
	txBatch   *telemetry.Histogram // datagrams per SendBatch submit
	rxDropped *telemetry.Counter   // shard queue overflow
	shardRx   []*telemetry.Counter // per-shard delivery counts
}

func newEpInstruments(r *telemetry.Registry, shards int) epInstruments {
	tel := epInstruments{
		rxPackets: r.Counter("udprun.rx_packets"),
		txPackets: r.Counter("udprun.tx_packets"),
		rxBatch:   r.Histogram("udprun.rx_batch"),
		txBatch:   r.Histogram("udprun.tx_batch"),
		rxDropped: r.Counter("udprun.rx_dropped"),
	}
	for i := 0; i < shards; i++ {
		tel.shardRx = append(tel.shardRx, r.Counter(fmt.Sprintf("udprun.shard%02d.rx_packets", i)))
	}
	return tel
}

// rxPacket is one datagram in flight from the read loop to a shard
// worker. buf holds the full datagram (ID prefix included); ownership
// transfers with the send.
type rxPacket struct {
	from int
	buf  *pktbuf.Buf
}

// Endpoint is one UDP-backed overlay endpoint. It implements
// node.Sender, node.VecSender and node.BatchSender (and client.Sender,
// which has the same shape as node.Sender).
type Endpoint struct {
	id   int
	conn *net.UDPConn
	opts Options
	pool *pktbuf.Pool
	tel  epInstruments

	idHdr [headerLen]byte // this endpoint's sender-ID prefix

	mu    sync.RWMutex
	peers map[int]netip.AddrPort

	// wmu serializes batched writes (they share platform scratch).
	wmu sync.Mutex
	wr  *batchWriter

	handler func(from int, data []byte)
	shardCh []chan rxPacket
	done    chan struct{}
	once    sync.Once
}

var (
	_ node.Sender      = (*Endpoint)(nil)
	_ node.VecSender   = (*Endpoint)(nil)
	_ node.BatchSender = (*Endpoint)(nil)
)

// Listen binds an endpoint with overlay ID id on addr (e.g.
// "127.0.0.1:0") with default options: one delivery loop, batched I/O.
func Listen(id int, addr string) (*Endpoint, error) {
	return ListenOpts(id, addr, Options{})
}

// ListenOpts binds an endpoint with explicit data-plane options.
func ListenOpts(id int, addr string, opts Options) (*Endpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udprun: %w", err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udprun: %w", err)
	}
	opts = opts.withDefaults()
	// A media relay burst easily outruns the default socket buffers;
	// size them for batch arrival (best effort — the kernel may clamp).
	conn.SetReadBuffer(4 << 20)
	conn.SetWriteBuffer(4 << 20)
	e := &Endpoint{
		id:    id,
		conn:  conn,
		opts:  opts,
		pool:  pktbuf.New(),
		tel:   newEpInstruments(opts.Telemetry, opts.Shards),
		peers: make(map[int]netip.AddrPort),
		done:  make(chan struct{}),
	}
	binary.BigEndian.PutUint32(e.idHdr[:], uint32(id))
	if opts.Telemetry != nil {
		e.pool.Instrument(opts.Telemetry.Counter("udprun.pool_hits"), opts.Telemetry.Counter("udprun.pool_misses"))
	}
	e.wr, err = newBatchWriter(e)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("udprun: %w", err)
	}
	return e, nil
}

// ID returns the endpoint's overlay ID.
func (e *Endpoint) ID() int { return e.id }

// Addr returns the bound UDP address.
func (e *Endpoint) Addr() string { return e.conn.LocalAddr().String() }

// AddPeer registers the address of another overlay endpoint.
func (e *Endpoint) AddPeer(id int, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udprun: %w", err)
	}
	ap := ua.AddrPort()
	// Unmap ::ffff:a.b.c.d so v4 sockets accept the address.
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	e.mu.Lock()
	e.peers[id] = ap
	e.mu.Unlock()
	return nil
}

// peer resolves a registered overlay ID.
func (e *Endpoint) peer(to int) (netip.AddrPort, bool) {
	e.mu.RLock()
	ap, ok := e.peers[to]
	e.mu.RUnlock()
	return ap, ok
}

// Send implements node.Sender. from is ignored (the socket's own ID is
// stamped) but kept for interface compatibility. The datagram is
// assembled in a pooled buffer — no per-send allocation.
func (e *Endpoint) Send(from, to int, data []byte) error {
	ap, ok := e.peer(to)
	if !ok {
		return ErrUnknownPeer
	}
	b := e.pool.Get(headerLen + len(data))
	buf := b.Bytes()
	copy(buf, e.idHdr[:])
	copy(buf[headerLen:], data)
	_, err := e.conn.WriteToUDPAddrPort(buf, ap)
	b.Release()
	e.tel.txPackets.Inc()
	return err
}

// SendVec implements node.VecSender: one datagram as hdr++payload.
func (e *Endpoint) SendVec(from, to int, hdr, payload []byte) error {
	vecs := [1]wire.Vec{{Hdr: hdr, Payload: payload}}
	return e.SendBatch(from, to, vecs[:])
}

// SendBatch implements node.BatchSender: the whole batch goes to one
// destination in order, moving up to Options.Batch datagrams per
// sendmmsg round on Linux (scatter-gather: the overlay-ID prefix, the
// per-packet header and the shared payload tail are never concatenated).
func (e *Endpoint) SendBatch(from, to int, vecs []wire.Vec) error {
	ap, ok := e.peer(to)
	if !ok {
		return ErrUnknownPeer
	}
	if len(vecs) == 0 {
		return nil
	}
	e.wmu.Lock()
	err := e.wr.send(ap, vecs)
	e.wmu.Unlock()
	e.tel.txPackets.Add(uint64(len(vecs)))
	e.tel.txBatch.Observe(int64(len(vecs)))
	return err
}

// Serve starts the receive plane: the batched read loop plus
// Options.Shards delivery workers. The handler BORROWS the data slice —
// it is only valid for the duration of the call (the backing pooled
// buffer is recycled after the handler returns); retain a copy if
// needed. With Shards > 1 the handler must also be safe for concurrent
// calls (per-stream delivery stays ordered; different streams and
// shards proceed in parallel). Peers are auto-registered from incoming
// datagrams, so static peer lists only need to cover first contact.
func (e *Endpoint) Serve(handler func(from int, data []byte)) {
	e.handler = handler
	if e.opts.Shards > 1 {
		e.shardCh = make([]chan rxPacket, e.opts.Shards)
		for i := range e.shardCh {
			e.shardCh[i] = make(chan rxPacket, shardQueueCap)
			go e.shardLoop(e.shardCh[i])
		}
	}
	go e.readLoop()
}

// shardOf maps a datagram (ID prefix included) to its delivery shard:
// RTP hashes by SSRC so one stream always lands on one worker; every
// other message kind serializes through shard 0.
func (e *Endpoint) shardOf(dgram []byte) int {
	const ssrcOff = headerLen + wire.RTPHeaderLen + 8 // RTP SSRC at bytes 8..12
	if len(dgram) >= ssrcOff+4 && dgram[headerLen] == wire.MsgRTP {
		ssrc := binary.BigEndian.Uint32(dgram[ssrcOff:])
		return int(ssrc % uint32(e.opts.Shards))
	}
	return 0
}

// deliver invokes the handler for one datagram and recycles its buffer.
func (e *Endpoint) deliver(from int, buf *pktbuf.Buf) {
	if e.handler != nil {
		e.handler(from, buf.Bytes()[headerLen:])
	}
	buf.Release()
}

func (e *Endpoint) shardLoop(ch chan rxPacket) {
	for p := range ch {
		e.deliver(p.from, p.buf)
	}
}

func (e *Endpoint) readLoop() {
	r := newBatchReader(e)
	defer func() {
		r.close()
		for _, ch := range e.shardCh {
			close(ch)
		}
	}()
	for {
		n := r.read()
		if n < 0 {
			return // socket closed
		}
		if n == 0 {
			continue
		}
		e.tel.rxPackets.Add(uint64(n))
		e.tel.rxBatch.Observe(int64(n))
		for i := 0; i < n; i++ {
			buf := r.take(i)
			dgram := buf.Bytes()
			if len(dgram) < headerLen {
				buf.Release()
				continue
			}
			from := int(binary.BigEndian.Uint32(dgram))
			// Auto-register the sender's address (NAT-style learning).
			// The hot path is a read lock; the source address is only
			// parsed for first contact.
			e.mu.RLock()
			_, known := e.peers[from]
			e.mu.RUnlock()
			// AdminID is always re-learned: admin CLI invocations are
			// short-lived processes on fresh ephemeral ports, and an ack
			// sent to a previous invocation's port is lost.
			if !known || from == AdminID {
				if ap, ok := r.addr(i); ok {
					e.mu.Lock()
					if _, dup := e.peers[from]; !dup || from == AdminID {
						e.peers[from] = ap
					}
					e.mu.Unlock()
				}
			}
			if e.shardCh == nil {
				e.deliver(from, buf)
				continue
			}
			sh := e.shardOf(dgram)
			select {
			case e.shardCh[sh] <- rxPacket{from: from, buf: buf}:
				e.tel.shardRx[sh].Inc()
			default:
				e.tel.rxDropped.Inc()
				buf.Release()
			}
		}
	}
}

// Close shuts the socket down.
func (e *Endpoint) Close() error {
	var err error
	e.once.Do(func() {
		close(e.done)
		err = e.conn.Close()
	})
	return err
}

// BrainAPI is the Streaming Brain the UDP RPC surface serves: any
// brain.Service, so livenet-brain puts a monolith, a replicated ring or
// a federation behind the same wire protocol.
type BrainAPI = brain.Service

// BrainServer exposes a Streaming Brain over UDP: it answers PathRequest
// RPCs, accepts stream registrations and Global Discovery reports.
type BrainServer struct {
	Brain BrainAPI
	ep    *Endpoint
	// nodes is the fleet size N: a node ID read off the wire must lie in
	// [0, N) before it reaches the Brain, which indexes its view and
	// partition tables with it unchecked.
	nodes     int
	badNodeID *telemetry.Counter
}

// BrainID is the well-known overlay ID of the Brain endpoint.
const BrainID = 1 << 20

// AdminID is the well-known overlay ID operator tooling (the
// livenet-brain -drain/-undrain client mode) sends admin RPCs from.
const AdminID = BrainID + 1

// NewBrainServer wraps a Brain behind a UDP endpoint.
func NewBrainServer(b BrainAPI, addr string) (*BrainServer, error) {
	ep, err := Listen(BrainID, addr)
	if err != nil {
		return nil, err
	}
	s := &BrainServer{
		Brain:     b,
		ep:        ep,
		nodes:     b.GlobalView().Nodes,
		badNodeID: ep.opts.Telemetry.Counter("udprun.brain_bad_node_id"),
	}
	ep.Serve(s.onMessage)
	return s, nil
}

// Addr returns the server's UDP address.
func (s *BrainServer) Addr() string { return s.ep.Addr() }

// Close shuts the server down.
func (s *BrainServer) Close() error { return s.ep.Close() }

// BadNodeIDs counts the datagrams dropped for naming a node outside
// [0, N) (udprun.brain_bad_node_id).
func (s *BrainServer) BadNodeIDs() uint64 { return s.badNodeID.Load() }

// validNodes is the one range check every node ID from the network passes
// before the Brain sees it; a datagram with any ID out of range is
// dropped and counted.
func (s *BrainServer) validNodes(ids ...uint16) bool {
	for _, id := range ids {
		if int(id) >= s.nodes {
			s.badNodeID.Inc()
			return false
		}
	}
	return true
}

func (s *BrainServer) onMessage(from int, data []byte) {
	switch wire.Kind(data) {
	case wire.MsgPathRequest:
		var req wire.PathRequest
		if err := req.Unmarshal(data); err != nil || !s.validNodes(req.Consumer) {
			return
		}
		paths, err := s.Brain.Lookup(req.StreamID, int(req.Consumer))
		resp := wire.PathResponse{StreamID: req.StreamID, Token: req.Token, OK: err == nil}
		for _, p := range paths {
			wp := make([]uint16, len(p))
			for i, h := range p {
				wp[i] = uint16(h)
			}
			resp.Paths = append(resp.Paths, wp)
		}
		s.ep.Send(BrainID, from, resp.Marshal(nil))
	case wire.MsgRegisterStream:
		var reg wire.RegisterStream
		if err := reg.Unmarshal(data); err != nil || !s.validNodes(reg.Producer) {
			return
		}
		s.Brain.RegisterStream(reg.StreamID, int(reg.Producer))
	case wire.MsgNodeReport:
		var rep wire.NodeReport
		if err := rep.Unmarshal(data); err != nil || !s.validNodes(rep.From, rep.To) {
			return
		}
		s.Brain.ReportLink(int(rep.From), int(rep.To),
			time.Duration(rep.RTTMicros)*time.Microsecond, float64(rep.LossPPM)/1e6, float64(rep.UtilPercent)/1e4)
		s.Brain.ReportNodeLoad(int(rep.From), float64(rep.NodeUtil)/1e4)
	case wire.MsgDrainNode:
		// Operator admin: mark a relay (un)draining for path decisions and
		// ack with the resulting state so tooling can confirm the change.
		var dn wire.DrainNode
		if err := dn.Unmarshal(data); err != nil || !s.validNodes(dn.Node) {
			return
		}
		s.Brain.SetDraining(int(dn.Node), dn.Drain)
		ack := wire.DrainAck{Node: dn.Node, Draining: s.Brain.Draining(int(dn.Node))}
		s.ep.Send(BrainID, from, ack.Marshal(nil))
	}
}

// BrainClient is the node-side stub for the Brain RPC: it provides a
// node.PathLookupFunc and forwards registrations/reports.
type BrainClient struct {
	ep *Endpoint

	mu      sync.Mutex
	token   uint32
	pending map[uint32]pendingLookup
}

// pendingLookup is one PathRequest awaiting its PathResponse.
type pendingLookup struct {
	cb       func([][]int, error)
	deadline *time.Timer
}

// LookupDeadline is how long a PathRequest waits for its PathResponse.
// Either datagram can be lost; without a deadline the caller's callback
// never fires — a node would keep its stream in "lookup pending" for
// ever, which its retry scan skips — and the pending entry leaks.
const LookupDeadline = time.Second

// ErrLookupUnanswered is what a lookup's callback gets when no
// PathResponse arrived within LookupDeadline.
var ErrLookupUnanswered = errors.New("udprun: brain lookup unanswered")

// NewBrainClient builds a client on an existing endpoint. It must be
// installed before the endpoint's Serve handler via WrapHandler.
func NewBrainClient(ep *Endpoint, brainAddr string) (*BrainClient, error) {
	if err := ep.AddPeer(BrainID, brainAddr); err != nil {
		return nil, err
	}
	return &BrainClient{ep: ep, pending: make(map[uint32]pendingLookup)}, nil
}

// WrapHandler returns a handler that intercepts Brain RPC responses and
// passes everything else to next.
func (c *BrainClient) WrapHandler(next func(from int, data []byte)) func(from int, data []byte) {
	return func(from int, data []byte) {
		if wire.Kind(data) == wire.MsgPathResponse {
			var resp wire.PathResponse
			if err := resp.Unmarshal(data); err != nil {
				return
			}
			if cb := c.take(resp.Token); cb != nil {
				if !resp.OK {
					cb(nil, brain.ErrUnknownStream)
					return
				}
				paths := make([][]int, 0, len(resp.Paths))
				for _, p := range resp.Paths {
					ip := make([]int, len(p))
					for i, h := range p {
						ip[i] = int(h)
					}
					paths = append(paths, ip)
				}
				cb(paths, nil)
			}
			return
		}
		next(from, data)
	}
}

// take removes a pending lookup and returns its callback, or nil when the
// response, the deadline or a send error already took it: whoever takes
// the entry calls the callback, so it fires exactly once.
func (c *BrainClient) take(tok uint32) func([][]int, error) {
	c.mu.Lock()
	p, ok := c.pending[tok]
	delete(c.pending, tok)
	c.mu.Unlock()
	if !ok {
		return nil
	}
	p.deadline.Stop()
	return p.cb
}

// fail ends a pending lookup with err, unless it was answered meanwhile.
func (c *BrainClient) fail(tok uint32, err error) {
	if cb := c.take(tok); cb != nil {
		cb(nil, err)
	}
}

// Lookup implements node.PathLookupFunc over the RPC. cb fires once: with
// the Brain's answer, or with an error when the request cannot be sent or
// stays unanswered for LookupDeadline.
func (c *BrainClient) Lookup(sid uint32, consumer int, cb func([][]int, error)) {
	c.mu.Lock()
	c.token++
	tok := c.token
	c.pending[tok] = pendingLookup{
		cb:       cb,
		deadline: time.AfterFunc(LookupDeadline, func() { c.fail(tok, ErrLookupUnanswered) }),
	}
	c.mu.Unlock()
	req := wire.PathRequest{StreamID: sid, Consumer: uint16(consumer), Token: tok}
	if err := c.ep.Send(c.ep.id, BrainID, req.Marshal(nil)); err != nil {
		c.fail(tok, err)
	}
}

// RegisterStream forwards a stream registration.
func (c *BrainClient) RegisterStream(sid uint32, producer int) {
	reg := wire.RegisterStream{StreamID: sid, Producer: uint16(producer)}
	c.ep.Send(c.ep.id, BrainID, reg.Marshal(nil))
}

// Report forwards one Global Discovery measurement.
func (c *BrainClient) Report(rep wire.NodeReport) {
	c.ep.Send(c.ep.id, BrainID, rep.Marshal(nil))
}

// Prober implements the UDP ping utility of §4.2 over an endpoint: nodes
// that have not transmitted over a link recently actively measure its RTT
// with a few small probes.
type Prober struct {
	ep *Endpoint

	mu      sync.Mutex
	token   uint32
	pending map[uint32]pendingPing
}

type pendingPing struct {
	sentAt time.Time
	cb     func(rtt time.Duration, ok bool)
}

// NewProber builds a prober on an endpoint; install it with WrapHandler
// (composable with BrainClient.WrapHandler).
func NewProber(ep *Endpoint) *Prober {
	return &Prober{ep: ep, pending: make(map[uint32]pendingPing)}
}

// WrapHandler intercepts pings (replying immediately) and pongs
// (resolving pending probes), passing everything else to next.
func (p *Prober) WrapHandler(next func(from int, data []byte)) func(from int, data []byte) {
	return func(from int, data []byte) {
		switch wire.Kind(data) {
		case wire.MsgPing:
			var pr wire.Probe
			if pr.Unmarshal(data) == nil {
				p.ep.Send(p.ep.id, from, pr.MarshalPong(nil))
			}
		case wire.MsgPong:
			var pr wire.Probe
			if pr.Unmarshal(data) != nil {
				return
			}
			p.mu.Lock()
			pend, ok := p.pending[pr.Token]
			delete(p.pending, pr.Token)
			p.mu.Unlock()
			if ok {
				pend.cb(time.Since(pend.sentAt), true)
			}
		default:
			next(from, data)
		}
	}
}

// Ping measures the RTT to a peer; cb fires with ok=false on timeout.
func (p *Prober) Ping(to int, timeout time.Duration, cb func(rtt time.Duration, ok bool)) {
	p.mu.Lock()
	p.token++
	tok := p.token
	p.pending[tok] = pendingPing{sentAt: time.Now(), cb: cb}
	p.mu.Unlock()
	pr := wire.Probe{Token: tok}
	if err := p.ep.Send(p.ep.id, to, pr.MarshalPing(nil)); err != nil {
		p.expire(tok)
		return
	}
	time.AfterFunc(timeout, func() { p.expire(tok) })
}

func (p *Prober) expire(tok uint32) {
	p.mu.Lock()
	pend, ok := p.pending[tok]
	delete(p.pending, tok)
	p.mu.Unlock()
	if ok {
		pend.cb(0, false)
	}
}
