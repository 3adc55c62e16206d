package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"livenet/internal/node"
	"livenet/internal/wire"
)

// span is one traced interval. Spans of one request share ID; Parent is
// the Span number of the span that caused it (0 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the trace epoch
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Span   int    `json:"span"`
	ID     uint64 `json:"id"`
}

// selfTimes returns, per span number, the span's duration minus the part
// of its interval that its direct children cover (children clipped to
// the parent, overlaps counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.Span]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Span] = (s.End - s.Start) - covered
	}
	return out
}

// Trace points recorded at the seams the binaries expose.
type evKind uint8

const (
	evTxStart     evKind = iota // a Send* call carrying the packet starts (node → to)
	evTxEnd                     // … and returns
	evIngestStart               // the node's handler is entered with the packet
	evIngestEnd                 // … and returns
	evArrive                    // the packet reaches a bench receiver (sink / probe)
)

type pktEvent struct {
	id   uint64 // SSRC<<16 | seq
	t    int64
	node int32
	to   int32
	kind evKind
}

// ctlEvent is a control-plane observation for the join trace.
type ctlEvent struct {
	kind string // "lookup_call", "lookup_cb", "subscribe", "suback"
	node int    // where it was seen
	from int    // sender (subscribe / suback)
	sid  uint32
	t    int64
}

// busy accumulates call time and datagrams at one seam of one node.
type busy struct {
	ns   atomic.Int64
	pkts atomic.Int64
}

// tracer holds the bench-owned spans and counters of one traced run. A
// nil *tracer is valid everywhere and records nothing, so the untraced
// run installs no wrapper at all.
type tracer struct {
	epoch  time.Time
	sample func(ssrc uint32, seq uint16) bool

	mu   sync.Mutex
	pkts []pktEvent
	ctl  []ctlEvent

	ingest map[int]*busy // per node: handler calls
	tx     map[int]*busy // per node: Send* calls
}

func newTracer(epoch time.Time, sample func(ssrc uint32, seq uint16) bool) *tracer {
	return &tracer{epoch: epoch, sample: sample, ingest: map[int]*busy{}, tx: map[int]*busy{}}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// sampleEvery keeps one packet in n by a multiplicative hash of
// (SSRC, seq): the same packet is sampled at every hop.
func sampleEvery(n uint32) func(uint32, uint16) bool {
	return func(ssrc uint32, seq uint16) bool {
		return ((ssrc<<16|uint32(seq))*2654435761)>>16%n == 0
	}
}

// rtpID extracts (SSRC, seq) from a MsgRTP frame prefix.
func rtpID(frame []byte) (ssrc uint32, seq uint16, ok bool) {
	const need = wire.RTPHeaderLen + 12
	if len(frame) < need || frame[0] != wire.MsgRTP {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(frame[wire.RTPHeaderLen+8:]), binary.BigEndian.Uint16(frame[wire.RTPHeaderLen+2:]), true
}

func pktKey(ssrc uint32, seq uint16) uint64 { return uint64(ssrc)<<16 | uint64(seq) }

func (tr *tracer) addPkt(ev pktEvent) {
	tr.mu.Lock()
	tr.pkts = append(tr.pkts, ev)
	tr.mu.Unlock()
}

func (tr *tracer) addCtl(ev ctlEvent) {
	if tr == nil {
		return
	}
	ev.t = tr.now()
	tr.mu.Lock()
	tr.ctl = append(tr.ctl, ev)
	tr.mu.Unlock()
}

// arrive records a packet reaching a bench receiver.
func (tr *tracer) arrive(node int, frame []byte) {
	if tr == nil {
		return
	}
	if ssrc, seq, ok := rtpID(frame); ok && tr.sample(ssrc, seq) {
		tr.addPkt(pktEvent{id: pktKey(ssrc, seq), t: tr.now(), node: int32(node), kind: evArrive})
	}
}

// wrapHandler times every call into a node's handler and records ingest
// spans for sampled packets and the Subscribe/SubAck messages it sees.
// Register per node before traffic starts.
func (tr *tracer) wrapHandler(nodeID int, next func(from int, data []byte)) func(from int, data []byte) {
	if tr == nil {
		return next
	}
	b := &busy{}
	tr.ingest[nodeID] = b
	return func(from int, data []byte) {
		ssrc, seq, isRTP := rtpID(data)
		var sid uint32
		kind := ""
		if !isRTP && len(data) >= 5 {
			switch wire.Kind(data) {
			case wire.MsgSubscribe:
				kind, sid = "subscribe", binary.BigEndian.Uint32(data[1:])
			case wire.MsgSubAck:
				kind, sid = "suback", binary.BigEndian.Uint32(data[1:])
			}
		}
		t0 := tr.now()
		next(from, data)
		t1 := tr.now()
		b.ns.Add(t1 - t0)
		if isRTP && tr.sample(ssrc, seq) {
			id := pktKey(ssrc, seq)
			tr.mu.Lock()
			tr.pkts = append(tr.pkts,
				pktEvent{id: id, t: t0, node: int32(nodeID), to: int32(from), kind: evIngestStart},
				pktEvent{id: id, t: t1, node: int32(nodeID), to: int32(from), kind: evIngestEnd})
			tr.mu.Unlock()
		} else if kind != "" {
			tr.mu.Lock()
			tr.ctl = append(tr.ctl, ctlEvent{kind: kind, node: nodeID, from: from, sid: sid, t: t0})
			tr.mu.Unlock()
		}
	}
}

// netSender is what a node hands its packets to: udprun.Endpoint's send
// surface.
type netSender interface {
	node.Sender
	node.VecSender
	node.BatchSender
}

// tracedNet wraps a node's transport. It implements Send, SendVec and
// SendBatch: a wrapper with Send alone would drop the node onto its
// serial path and the traced run would measure different code.
type tracedNet struct {
	tr   *tracer
	id   int
	next netSender
	b    *busy
}

var (
	_ node.Sender      = (*tracedNet)(nil)
	_ node.VecSender   = (*tracedNet)(nil)
	_ node.BatchSender = (*tracedNet)(nil)
)

// wrapNet returns the transport a traced node sends through (next itself
// when tracing is off). Register per node before traffic starts.
func (tr *tracer) wrapNet(id int, next netSender) netSender {
	if tr == nil {
		return next
	}
	b := &busy{}
	tr.tx[id] = b
	return &tracedNet{tr: tr, id: id, next: next, b: b}
}

// wrapClient is wrapNet for a bench-side sender (injector, broadcaster):
// its Send* calls are traced under id but stay out of the nodes' busy
// shares.
func (tr *tracer) wrapClient(id int, next netSender) netSender {
	if tr == nil {
		return next
	}
	return &tracedNet{tr: tr, id: id, next: next, b: &busy{}}
}

func (n *tracedNet) mark(kind evKind, t int64, to int, frame []byte) {
	if ssrc, seq, ok := rtpID(frame); ok && n.tr.sample(ssrc, seq) {
		n.tr.addPkt(pktEvent{id: pktKey(ssrc, seq), t: t, node: int32(n.id), to: int32(to), kind: kind})
	}
}

func (n *tracedNet) done(t0 int64, pkts int) int64 {
	t1 := n.tr.now()
	n.b.ns.Add(t1 - t0)
	n.b.pkts.Add(int64(pkts))
	return t1
}

func (n *tracedNet) Send(from, to int, data []byte) error {
	t0 := n.tr.now()
	err := n.next.Send(from, to, data)
	t1 := n.done(t0, 1)
	n.mark(evTxStart, t0, to, data)
	n.mark(evTxEnd, t1, to, data)
	return err
}

func (n *tracedNet) SendVec(from, to int, hdr, payload []byte) error {
	t0 := n.tr.now()
	err := n.next.SendVec(from, to, hdr, payload)
	t1 := n.done(t0, 1)
	n.mark(evTxStart, t0, to, hdr)
	n.mark(evTxEnd, t1, to, hdr)
	return err
}

func (n *tracedNet) SendBatch(from, to int, vecs []wire.Vec) error {
	t0 := n.tr.now()
	err := n.next.SendBatch(from, to, vecs)
	t1 := n.done(t0, len(vecs))
	for _, v := range vecs {
		n.mark(evTxStart, t0, to, v.Hdr)
		n.mark(evTxEnd, t1, to, v.Hdr)
	}
	return err
}

// wrapLookup records PathLookup call → callback per (consumer, stream).
func (tr *tracer) wrapLookup(nodeID int, next node.PathLookupFunc) node.PathLookupFunc {
	if tr == nil {
		return next
	}
	return func(sid uint32, consumer int, cb func([][]int, error)) {
		tr.addCtl(ctlEvent{kind: "lookup_call", node: nodeID, sid: sid})
		next(sid, consumer, func(paths [][]int, err error) {
			tr.addCtl(ctlEvent{kind: "lookup_cb", node: nodeID, sid: sid})
			cb(paths, err)
		})
	}
}

// busyShare is the total time spent inside the given seam over all
// nodes, as a share of one core over the window.
func busyShare(m map[int]*busy, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	var ns int64
	for _, b := range m {
		ns += b.ns.Load()
	}
	return float64(ns) / float64(window)
}

// --- per-packet waterfall ---

// waterfall is an ordered list of stages whose per-request values add up
// to that request's end-to-end time.
type waterfall struct {
	names []string
	reqs  [][]float64 // per request: one value per stage (µs)
	spans []span      // filled for the first keepSpans requests
}

const keepSpans = 2000

func (w *waterfall) add(id uint64, t0 int64, bounds []int64) {
	vals := make([]float64, len(bounds))
	prev := t0
	rootN := len(w.spans) + 1
	keep := len(w.reqs) < keepSpans
	if keep {
		w.spans = append(w.spans, span{Name: "request", Start: t0, End: max(t0, bounds[len(bounds)-1]), Span: rootN, ID: id})
	}
	for i, b := range bounds {
		if b < prev {
			b = prev // stages are made monotone so they telescope to the total
		}
		vals[i] = float64(b-prev) / 1e3
		if keep {
			w.spans = append(w.spans, span{Name: w.names[i], Start: prev, End: b, Parent: rootN, Span: len(w.spans) + 1, ID: id})
		}
		prev = b
	}
	w.reqs = append(w.reqs, vals)
}

// total returns the per-request end-to-end sample (µs).
func (w *waterfall) total() *sample {
	s := &sample{}
	for _, r := range w.reqs {
		sum := 0.0
		for _, v := range r {
			sum += v
		}
		s.add(sum)
	}
	return s
}

// stage returns the sample of one stage over all requests (µs).
func (w *waterfall) stage(i int) *sample {
	s := &sample{}
	for _, r := range w.reqs {
		s.add(r[i])
	}
	return s
}

// band returns the mean of every stage over the requests whose total
// lies between the lo-th and hi-th percentile, so the rows add up to the
// mean total of that band. band(0.40, 0.60) is the median request.
func (w *waterfall) band(lo, hi float64) (rows []float64, total float64, n int) {
	tot := w.total()
	if tot.n() == 0 {
		return nil, 0, 0
	}
	min, max := tot.pct(lo), tot.pct(hi)
	rows = make([]float64, len(w.names))
	for _, r := range w.reqs {
		sum := 0.0
		for _, v := range r {
			sum += v
		}
		if sum < min || sum > max {
			continue
		}
		n++
		for i, v := range r {
			rows[i] += v
		}
	}
	for i := range rows {
		rows[i] /= float64(n)
		total += rows[i]
	}
	return rows, total, n
}

// render prints the waterfall of the median request next to that of the
// tail (90th to 99th percentile).
func (w *waterfall) render(title string) string {
	med, medTotal, n := w.band(0.40, 0.60)
	if n == 0 {
		return title + ": no traced requests\n"
	}
	tail, tailTotal, tn := w.band(0.90, 0.99)
	out := fmt.Sprintf("%s\n  %-28s %12s %7s   %12s\n", title, fmt.Sprintf("(%d traced; µs)", len(w.reqs)),
		fmt.Sprintf("p40-p60 n=%d", n), "share", fmt.Sprintf("p90-p99 n=%d", tn))
	for i, name := range w.names {
		share := 0.0
		if medTotal > 0 {
			share = 100 * med[i] / medTotal
		}
		out += fmt.Sprintf("  %-28s %12.1f %6.1f%%   %12.1f\n", name, med[i], share, tail[i])
	}
	out += fmt.Sprintf("  %-28s %12.1f %7s   %12.1f   (p50 of all traced: %.1f)\n", "= sum", medTotal, "", tailTotal, w.total().pct(0.5))
	return out
}

// pktPath describes the route of traced packets for the analysis: the
// sender, the overlay nodes in order, and which `to` IDs at the last
// node lead to the bench receiver.
type pktPath struct {
	src     int
	nodes   []int
	lastTo  func(to int) bool // destination IDs at the last node that belong to the receiver
	recv    int               // receiver ID used in evArrive
	copies  int               // arrivals that complete one packet at the receiver
	t0      func(id uint64) (int64, bool)
	lead    string // name of the stage between t0 and the sender's Send* (empty: t0 is the Send* start)
	filter  func(id uint64) bool
	nameOf  func(id int) string
	arrival func(id uint64) (int64, bool) // overrides evArrive when set
}

// hopAgg collects the trace points of one packet at one node.
type hopAgg struct {
	ingestStart, ingestEnd int64
	txStart, txEnd         int64
	haveIngest, haveTx     bool
	perTo                  map[int32]bool // first tx per destination already taken
}

// packetWaterfall folds the recorded packet events into one waterfall
// along p. Stages per hop: ingest (handler call), pacer wait (handler
// return → first Send* carrying the packet), tx (that Send* call; at a
// fan-out node first start → last end over the receiver's IDs), transit
// (Send* return → next handler entry: kernel + udprun rx, and any loss
// recovery).
func (tr *tracer) packetWaterfall(p pktPath) *waterfall {
	w := &waterfall{}
	name := p.nameOf
	if name == nil {
		name = func(id int) string { return fmt.Sprintf("node%d", id) }
	}
	if p.lead != "" {
		w.names = append(w.names, p.lead)
	}
	w.names = append(w.names, "src.tx", "transit.src")
	for i, n := range p.nodes {
		w.names = append(w.names, name(n)+".ingest", name(n)+".pacer_wait", name(n)+".tx")
		if i+1 < len(p.nodes) {
			w.names = append(w.names, "transit."+name(n))
		} else {
			w.names = append(w.names, "transit.recv")
		}
	}

	tr.mu.Lock()
	evs := append([]pktEvent(nil), tr.pkts...)
	tr.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].t < evs[j].t })

	type pk struct {
		src      hopAgg
		hops     []hopAgg
		arrivals []int64
	}
	idx := make(map[int]int, len(p.nodes))
	for i, n := range p.nodes {
		idx[n] = i
	}
	pkts := make(map[uint64]*pk)
	get := func(id uint64) *pk {
		q := pkts[id]
		if q == nil {
			q = &pk{hops: make([]hopAgg, len(p.nodes))}
			pkts[id] = q
		}
		return q
	}
	for _, e := range evs {
		if p.filter != nil && !p.filter(e.id) {
			continue
		}
		q := get(e.id)
		switch {
		case e.kind == evArrive:
			if int(e.node) == p.recv {
				q.arrivals = append(q.arrivals, e.t)
			}
		case int(e.node) == p.src:
			h := &q.src
			if e.kind == evTxStart && !h.haveTx {
				h.txStart, h.haveTx = e.t, true
			} else if e.kind == evTxEnd && h.haveTx && h.txEnd == 0 {
				h.txEnd = e.t
			}
		default:
			i, ok := idx[int(e.node)]
			if !ok {
				continue
			}
			h := &q.hops[i]
			switch e.kind {
			case evIngestStart:
				if !h.haveIngest {
					h.ingestStart, h.haveIngest = e.t, true
				}
			case evIngestEnd:
				if h.haveIngest && h.ingestEnd == 0 {
					h.ingestEnd = e.t
				}
			case evTxStart, evTxEnd:
				next := i+1 < len(p.nodes) && int(e.to) == p.nodes[i+1]
				last := i+1 == len(p.nodes) && p.lastTo(int(e.to))
				if !next && !last {
					continue
				}
				if h.perTo == nil {
					h.perTo = make(map[int32]bool)
				}
				// Only the first Send* per destination counts: a later one
				// is a retransmission, which belongs to transit.
				key := e.to<<1 | int32(e.kind-evTxStart)
				if h.perTo[key] {
					continue
				}
				h.perTo[key] = true
				if e.kind == evTxStart {
					if !h.haveTx || e.t < h.txStart {
						h.txStart, h.haveTx = e.t, true
					}
				} else if e.t > h.txEnd {
					h.txEnd = e.t
				}
			}
		}
	}

	ids := make([]uint64, 0, len(pkts))
	for id := range pkts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	copies := max(p.copies, 1)
	for _, id := range ids {
		q := pkts[id]
		var arrive int64
		if p.arrival != nil {
			a, ok := p.arrival(id)
			if !ok {
				continue
			}
			arrive = a
		} else {
			if len(q.arrivals) < copies {
				continue
			}
			arrive = q.arrivals[copies-1]
		}
		if !q.src.haveTx {
			continue
		}
		complete := true
		for i := range q.hops {
			if !q.hops[i].haveIngest || !q.hops[i].haveTx {
				complete = false
			}
		}
		if !complete {
			continue
		}
		t0 := q.src.txStart
		var bounds []int64
		if p.t0 != nil {
			s, ok := p.t0(id)
			if !ok {
				continue
			}
			t0 = s
			bounds = append(bounds, q.src.txStart)
		}
		bounds = append(bounds, q.src.txEnd, q.hops[0].ingestStart)
		for i := range q.hops {
			h := &q.hops[i]
			bounds = append(bounds, h.ingestEnd, h.txStart, h.txEnd)
			if i+1 < len(q.hops) {
				bounds = append(bounds, q.hops[i+1].ingestStart)
			} else {
				bounds = append(bounds, arrive)
			}
		}
		w.add(id, t0, bounds)
	}
	return w
}

// pooled gathers the samples of every stage whose name matches.
func (w *waterfall) pooled(match func(name string) bool) *sample {
	s := &sample{}
	for i, n := range w.names {
		if match(n) {
			for _, r := range w.reqs {
				s.add(r[i])
			}
		}
	}
	return s
}

// writeSpans writes spans as JSON lines (name, start, end, parent, span, id).
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
