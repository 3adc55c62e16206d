package perfbench

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"livenet/internal/gcc"
	"livenet/internal/media"
	"livenet/internal/node"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/stats"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

// --- What a relay hop costs (pacer + real sockets; DESIGN.md §9) ---

// PacerLinkCap is what one link carries at 1 Gbit/s when its pacer is
// only drained every 2 ms (the deficit timer's longest sleep): per op,
// one such drain of a permanently backlogged gcc.Pacer. pps is 1200 B
// packets per virtual second — the configured rate (≈104k) when the
// burst cap covers the drain interval, 5000 when it is a fixed 12 kB.
func PacerLinkCap(b *testing.B) {
	const size, backlog = 1200, 512
	p := gcc.NewPacer[struct{}](1e9)
	sent := 0
	emit := func(gcc.Item[struct{}]) { sent++ }
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p.QueueLen() < backlog {
			p.Push(gcc.Item[struct{}]{Class: gcc.ClassVideo, Size: size})
		}
		now += gcc.BurstWindow
		p.Drain(now, emit)
	}
	b.ReportMetric(float64(sent)/now.Seconds(), "pps")
}

const (
	chainInjector = 1000 // client IDs start here; below are overlay nodes
	chainViewer   = 2000
	chainSID      = 77
)

// udpChain is producer 0 → relay 1 → consumer 2 as real nodes on loopback
// sockets with the one static path (no Brain), an injector socket that
// uploads to node 0 and a sink socket standing in for the viewer at node
// 2. at[k] is when the last media datagram entered node k's handler
// (k = 3: the sink's).
type udpChain struct {
	nodes []*node.Node
	eps   []*udprun.Endpoint // nodes 0..2, injector, sink
	at    [4]atomic.Int64
	seen  chan uint16 // RTP sequence numbers in sink arrival order
	epoch time.Time
	seq   uint16
	buf   []byte // send's frame and payload scratch
	pay   []byte
}

// newUDPChain builds the chain with every pacer at rateBps and waits until
// the viewer's subscription is established end to end.
func newUDPChain(rateBps float64) (*udpChain, error) {
	c := &udpChain{seen: make(chan uint16, 4096), epoch: time.Now()}
	clock := sim.NewRealClock()
	listen := func(id int) (*udprun.Endpoint, error) {
		ep, err := udprun.Listen(id, "127.0.0.1:0")
		if err == nil {
			c.eps = append(c.eps, ep)
		}
		return ep, err
	}
	stamp := func(k int, data []byte) bool {
		if wire.Kind(data) != wire.MsgRTP {
			return false
		}
		c.at[k].Store(int64(time.Since(c.epoch)))
		return true
	}
	for id := 0; id < 3; id++ {
		ep, err := listen(id)
		if err != nil {
			c.close()
			return nil, err
		}
		n := node.New(node.Config{
			ID: id, Clock: clock, Net: ep,
			PathLookup: func(_ uint32, _ int, cb func([][]int, error)) { cb([][]int{{0, 1, 2}}, nil) },
			IsOverlay:  func(peer int) bool { return peer < chainInjector },
			// Pinned, so that GCC feedback does not move the rate under test.
			InitialRateBps: rateBps, MinRateBps: rateBps, MaxRateBps: rateBps,
		})
		c.nodes = append(c.nodes, n)
		id := id
		ep.Serve(func(from int, data []byte) {
			stamp(id, data)
			n.OnMessage(from, data)
		})
	}
	inj, err := listen(chainInjector)
	if err != nil {
		c.close()
		return nil, err
	}
	inj.Serve(func(int, []byte) {})
	sink, err := listen(chainViewer)
	if err != nil {
		c.close()
		return nil, err
	}
	sink.Serve(func(_ int, data []byte) {
		if stamp(3, data) && len(data) >= wire.RTPHeaderLen+4 {
			c.seen <- binary.BigEndian.Uint16(data[wire.RTPHeaderLen+2:])
		}
	})
	peers := [][2]int{{3, 0}, {0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 4}} // indices into eps
	for _, p := range peers {
		if err := c.eps[p[0]].AddPeer(c.eps[p[1]].ID(), c.eps[p[1]].Addr()); err != nil {
			c.close()
			return nil, err
		}
	}
	// The first upload makes node 0 the producer; the viewer then pulls
	// the stream down the chain.
	c.send(media.FrameI, 0, 0, 1, 1200)
	time.Sleep(20 * time.Millisecond)
	c.nodes[2].AttachViewer(chainViewer, chainSID)
	deadline := time.Now().Add(5 * time.Second)
	for len(c.seen) == 0 {
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("viewer never received the stream (path %v)", c.nodes[2].StreamPath(chainSID))
		}
		c.send(media.FrameP, 0, 0, 1, 1200)
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // the GoP prime and the trickle land
	c.drainSeen()
	return c, nil
}

func (c *udpChain) close() {
	for _, n := range c.nodes {
		n.Close()
	}
	for _, ep := range c.eps {
		ep.Close()
	}
}

func (c *udpChain) drainSeen() {
	for len(c.seen) > 0 {
		<-c.seen
	}
}

// send uploads packet idx of count of a frame and returns its sequence
// number.
func (c *udpChain) send(ft media.FrameType, frameID uint32, idx, count uint16, size int) uint16 {
	c.seq++
	if cap(c.pay) < size {
		c.pay = make([]byte, size)
	}
	payload := c.pay[:size]
	h := media.FrameHeader{Type: ft, FrameID: frameID, GopID: frameID / 25, PktIdx: idx, PktCount: count}
	h.Marshal(payload[:0])
	pkt := rtp.Packet{
		Marker: idx == count-1, PayloadType: rtp.PayloadVideo, SequenceNumber: c.seq,
		Timestamp: frameID * 3600, SSRC: chainSID, Payload: payload,
	}
	c.buf = wire.FrameRTP(c.buf[:0], uint32(time.Since(c.epoch)/(10*time.Microsecond)), nil)
	c.buf = pkt.Marshal(c.buf)
	_ = c.eps[3].Send(chainInjector, 0, c.buf) // a refused send shows as a missing arrival
	return c.seq
}

// await blocks until seq reaches the sink.
func (c *udpChain) await(seq uint16, within time.Duration) bool {
	t := time.NewTimer(within)
	defer t.Stop()
	for {
		select {
		case got := <-c.seen:
			if got == seq {
				return true
			}
		case <-t.C:
			return false
		}
	}
}

// UDPChainHopLatency sends one 1200 B packet at a time through three
// udprun nodes on loopback — injector → 0 → 1 → 2 → viewer socket, rates
// pinned at 1 Gbit/s so that only what a hop itself costs is measured —
// and reports a hop's latency (handler entry at one node to handler entry
// at the next receiver: ingest, pacer, submit and loopback transit; three
// per packet) beside the end-to-end time, which is the op.
func UDPChainHopLatency(b *testing.B) {
	c, err := newUDPChain(1e9)
	if err != nil {
		b.Fatal(err)
	}
	defer c.close()
	var hops, e2e stats.Sample
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := int64(time.Since(c.epoch))
		seq := c.send(media.FrameP, uint32(i+1), 0, 1, 1200)
		if !c.await(seq, 5*time.Second) {
			b.Fatalf("packet %d never reached the viewer", seq)
		}
		var at [4]int64
		for k := range at {
			at[k] = c.at[k].Load()
		}
		for k := 1; k < 4; k++ {
			hops.Add(float64(at[k]-at[k-1]) / 1e3)
		}
		e2e.Add(float64(at[3]-t0) / 1e3)
	}
	b.StopTimer()
	b.ReportMetric(hops.Median(), "hop_p50_us")
	b.ReportMetric(hops.Percentile(99), "hop_p99_us")
	b.ReportMetric(e2e.Median(), "e2e_p50_us")
}
