package perfbench

import (
	"encoding/binary"
	"testing"
	"time"

	"livenet/internal/media"
	"livenet/internal/node"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/udprun"
	"livenet/internal/wire"
)

// --- Data-plane throughput (pps-denominated; see DESIGN.md §9) ---

// countSink counts datagrams a node submits without touching the bytes
// (the netem serialization cost would otherwise dominate and hide the
// forwarding path itself). It implements the batched submit interface,
// so the node runs its zero-copy fan-out exactly as over udprun.
type countSink struct{ n int }

func (s *countSink) count(hdr []byte) {
	// Only the RTP fan-out is under test; the node also emits RTCP
	// receiver reports and control messages on its own schedule.
	if len(hdr) > 0 && hdr[0] == wire.MsgRTP {
		s.n++
	}
}

func (s *countSink) Send(from, to int, data []byte) error { s.count(data); return nil }
func (s *countSink) SendVec(from, to int, hdr, payload []byte) error {
	s.count(hdr)
	return nil
}
func (s *countSink) SendBatch(from, to int, vecs []wire.Vec) error {
	for _, v := range vecs {
		s.count(v.Hdr)
	}
	return nil
}

// nodeForwardFanout measures the ingress→FIB-fan-out→pacer→submit path
// of one node with subs overlay subscribers: per op, one RTP packet in,
// subs packets out. The reported pps metric is fan-out datagrams per
// wall second; at steady state the path must not allocate (pooled
// payload + inline header prefixes + generic pacer).
func nodeForwardFanout(b *testing.B, subs int) {
	loop := sim.NewLoop(1)
	sink := &countSink{}
	n := node.New(node.Config{
		ID:             0,
		Clock:          loop,
		Net:            sink,
		InitialRateBps: 1e12, // pacing must never be the bottleneck here
		MinRateBps:     1e12,
		MaxRateBps:     1e12,
		LinkRTT:        func(int) time.Duration { return 20 * time.Millisecond },
		IsOverlay:      func(id int) bool { return id < 10_000 },
	})
	const sid = 9
	for i := 1; i <= subs; i++ {
		sub := wire.Subscribe{StreamID: sid, Requester: uint16(i)}
		n.OnMessage(i, sub.Marshal(nil))
	}

	// One-packet frames: every ingress packet completes its frame, so the
	// assembler and GoP cache reach steady state (freelist rotation, no
	// growth) instead of accumulating pending state.
	hdr := media.FrameHeader{Type: media.FrameI, FrameID: 0, GopID: 0, PktIdx: 0, PktCount: 1}
	payload := hdr.Marshal(nil)
	payload = append(payload, make([]byte, 1200-len(payload))...)
	pkt := rtp.Packet{PayloadType: rtp.PayloadVideo, SSRC: sid, Payload: payload}
	frame := wire.FrameRTP(nil, 0, pkt.Marshal(nil))
	seqOff := wire.RTPHeaderLen + 2                                        // RTP sequence number
	payOff := wire.RTPHeaderLen + rtp.PrefixLen(frame[wire.RTPHeaderLen:]) // media header
	// drain steps the loop until the pacers have emitted the whole
	// fan-out (the loop is never empty — nodes keep watchdog timers
	// armed — so "run until quiet" would not terminate), then lets 2 ms
	// of virtual time pass: ingress packets 2 ms apart, as the drain tick
	// used to space them. With no time passing between packets the slow
	// path's time-driven state (rate meter, scans) would never turn over.
	target := 0
	drain := func() {
		target += subs
		for sink.n < target {
			if !loop.Step() {
				b.Fatalf("loop drained with %d/%d datagrams delivered", sink.n, target)
			}
		}
		loop.RunUntil(loop.Now() + 2*time.Millisecond)
	}
	// Warm the path (pool, per-link scratch, recvState) before timing.
	for i := 0; i < 3; i++ {
		n.OnMessage(10_000, frame)
		drain()
	}
	warmed := sink.n

	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint16(4 + i)
		frameID := uint32(4 + i)
		binary.BigEndian.PutUint16(frame[seqOff:], seq)
		if frameID%30 == 0 {
			frame[payOff] = byte(media.FrameI)
		} else {
			frame[payOff] = byte(media.FrameP)
		}
		binary.BigEndian.PutUint32(frame[payOff+1:], frameID)
		binary.BigEndian.PutUint32(frame[payOff+5:], frameID/30)
		n.OnMessage(10_000, frame)
		drain()
	}
	b.StopTimer()
	if got := sink.n - warmed; got != b.N*subs {
		b.Fatalf("fan-out delivered %d datagrams, want %d", got, b.N*subs)
	}
	b.ReportMetric(float64(b.N*subs)/b.Elapsed().Seconds(), "pps")
}

// NodeForwardFanout10 is the fan-out path at 10 subscribers per stream.
func NodeForwardFanout10(b *testing.B) { nodeForwardFanout(b, 10) }

// NodeForwardFanout100 is the fan-out path at 100 subscribers.
func NodeForwardFanout100(b *testing.B) { nodeForwardFanout(b, 100) }

// NodeForwardFanout1000 is the fan-out path at 1000 subscribers — the
// flash-crowd shape; the acceptance bar is zero allocations per op.
func NodeForwardFanout1000(b *testing.B) { nodeForwardFanout(b, 1000) }

// --- Real-socket throughput over loopback (udprun) ---

// udpPair builds two connected endpoints on loopback.
func udpPair(b *testing.B, opts udprun.Options) (*udprun.Endpoint, *udprun.Endpoint) {
	b.Helper()
	a, err := udprun.ListenOpts(1, "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	c, err := udprun.ListenOpts(2, "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	if err := a.AddPeer(2, c.Addr()); err != nil {
		b.Fatal(err)
	}
	if err := c.AddPeer(1, a.Addr()); err != nil {
		b.Fatal(err)
	}
	return a, c
}

// token acquires one send credit, failing the benchmark if the window
// never frees (a lost datagram would otherwise hang the run). The
// deadline timer is caller-owned and reused — a per-op time.After would
// cost the loopback benchmarks their zero-alloc steady state.
func token(b *testing.B, tokens chan struct{}, deadline *time.Timer) {
	select {
	case <-tokens:
		return
	default:
	}
	deadline.Reset(10 * time.Second)
	select {
	case <-tokens:
		if !deadline.Stop() {
			<-deadline.C
		}
	case <-deadline.C:
		b.Fatal("send window never freed: datagram lost on loopback?")
	}
}

// newDeadline builds the stopped, drained timer token reuses.
func newDeadline() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// UDPLoopbackEcho measures single-datagram round trips over real
// sockets: A sends 1200-byte datagrams through a 64-deep self-clocked
// window, B echoes each one back. pps counts datagrams crossing the
// loopback (two per echo). The receive side runs the batched
// (recvmmsg) read loop; sends are the single-datagram pooled path.
func UDPLoopbackEcho(b *testing.B) {
	a, c := udpPair(b, udprun.Options{})
	defer a.Close()
	defer c.Close()

	c.Serve(func(from int, data []byte) {
		c.Send(2, 1, data) // Send copies synchronously: borrowing is safe
	})
	const window = 64
	tokens := make(chan struct{}, window)
	a.Serve(func(int, []byte) { tokens <- struct{}{} })
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	payload := make([]byte, 1200)
	deadline := newDeadline()
	defer deadline.Stop()
	// Warm both endpoints' buffer pools before counting allocations.
	for i := 0; i < window; i++ {
		token(b, tokens, deadline)
		if err := a.Send(1, 2, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(2 * 1200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		token(b, tokens, deadline)
		if err := a.Send(1, 2, payload); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < window; i++ {
		token(b, tokens, deadline) // wait out the tail
	}
	b.StopTimer()
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "pps")
}

// UDPLoopbackBatchRelay measures the batched submit path over real
// sockets: A ships 16-datagram scatter-gather batches with SendBatch
// (sendmmsg on Linux), B relays each arrival onward to itself-as-sink
// via the pooled Send path, crediting the window. pps counts datagrams
// crossing the loopback (two per relayed packet).
func UDPLoopbackBatchRelay(b *testing.B) {
	a, c := udpPair(b, udprun.Options{Batch: 16})
	defer a.Close()
	defer c.Close()

	const batch = 16
	const window = 4 * batch
	tokens := make(chan struct{}, window)
	c.Serve(func(from int, data []byte) {
		if from == 1 {
			c.Send(2, 2, data) // relay hop: borrow-safe synchronous copy
		} else {
			tokens <- struct{}{}
		}
	})
	if err := c.AddPeer(2, c.Addr()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < window; i++ {
		tokens <- struct{}{}
	}

	hdr := make([]byte, 17) // overlay RTP prefix shape
	payload := make([]byte, 1183)
	vecs := make([]wire.Vec, batch)
	for i := range vecs {
		vecs[i] = wire.Vec{Hdr: hdr, Payload: payload}
	}
	deadline := newDeadline()
	defer deadline.Stop()
	b.SetBytes(2 * batch * 1200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			token(b, tokens, deadline)
		}
		if err := a.SendBatch(1, 2, vecs); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < window; i++ {
		token(b, tokens, deadline)
	}
	b.StopTimer()
	b.ReportMetric(float64(2*batch*b.N)/b.Elapsed().Seconds(), "pps")
}
