package node

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"livenet/internal/media"
	"livenet/internal/netem"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/wire"
)

// frameOf packetizes one synthetic frame of pkts full packets.
func frameOf(pz *media.Packetizer, ft media.FrameType, id uint32, pkts int) []rtp.Packet {
	f := media.Frame{Type: ft, ID: id, GopID: id / 50, PTS: time.Duration(id) * 40 * time.Millisecond,
		Size: pkts * (media.PayloadMTU - media.FrameHeaderLen)}
	return pz.Packetize(f, 0, nil)
}

// TestInBudgetPacketCrossesChainAtWireDelay: with the pacer
// work-conserving, a packet its links have budget for leaves each node at
// the instant it arrived, so a hop adds the emulated link's delay
// (propagation + serialization) and nothing else — under the 2 ms drain
// tick every hop added one tick on top.
func TestInBudgetPacketCrossesChainAtWireDelay(t *testing.T) {
	h := newHarness(t, 21, []int{0, 1, 2})
	const rtt, bw = 20 * time.Millisecond, 100e6
	for _, pair := range [][2]int{{broadcasterID, 0}, {0, 1}, {1, 2}, {2, viewerBase}} {
		h.net.AddDuplex(pair[0], pair[1], netem.LinkConfig{RTT: rtt, BandwidthBps: bw})
	}
	// arrivals[seq] = when the packet entered node 0, 1, 2 and the viewer.
	type arrival struct {
		at   time.Duration
		size int
	}
	arrivals := map[uint16][]arrival{}
	tap := func(next func(int, []byte)) func(int, []byte) {
		return func(from int, data []byte) {
			if wire.Kind(data) == wire.MsgRTP {
				_, rtpData, _ := wire.UnframeRTP(data)
				var p rtp.Packet
				if p.Unmarshal(rtpData) == nil {
					arrivals[p.SequenceNumber] = append(arrivals[p.SequenceNumber], arrival{h.loop.Now(), len(data)})
				}
			}
			if next != nil {
				next(from, data)
			}
		}
	}
	for id, n := range h.nodes {
		h.net.Handle(id, tap(n.OnMessage))
	}
	h.net.Handle(viewerBase, tap(nil))

	const sid = 61
	h.paths[sid] = [][]int{{0, 1, 2}}
	pz := media.NewPacketizer(sid)
	// One single-packet frame every 40 ms: 240 kbit/s on 8 Mbit/s pacers.
	var live []uint16
	for i := 0; i < 100; i++ {
		i := i
		h.loop.AfterFunc(time.Duration(i)*40*time.Millisecond, func() {
			ft := media.FrameP
			if i%50 == 0 {
				ft = media.FrameI
			}
			for _, pkt := range frameOf(pz, ft, uint32(i), 1) {
				if i >= 60 {
					live = append(live, pkt.SequenceNumber)
				}
				h.net.Send(broadcasterID, 0, wire.FrameRTP(nil, uint32(h.loop.Now()/(10*time.Microsecond)), pkt.Marshal(nil)))
			}
		})
	}
	h.loop.AfterFunc(time.Second, func() { h.nodes[2].AttachViewer(viewerBase, sid) })
	// The GoP primes of the subscription are a backlog and wait for the
	// timer; by the 60th packet they are through.
	primed := map[int]uint64{}
	h.loop.AfterFunc(60*40*time.Millisecond-time.Millisecond, func() {
		for id, n := range h.nodes {
			primed[id] = n.tel.drainTimerPasses.Load()
		}
	})
	h.loop.RunUntil(5 * time.Second)

	if len(live) != 40 {
		t.Fatalf("sent %d live packets after the subscription settled, want 40", len(live))
	}
	for _, seq := range live {
		a := arrivals[seq]
		if len(a) != 4 {
			t.Fatalf("seq %d was seen at %d of 4 taps", seq, len(a))
		}
		for k := 1; k < 4; k++ {
			wire := rtt/2 + time.Duration(float64(a[k].size*8)/bw*float64(time.Second))
			if d := a[k].at - a[k-1].at - wire; d < -time.Microsecond || d > time.Microsecond {
				t.Fatalf("seq %d, hop %d: %v from handler to handler, the link alone is %v (%+v over)", seq, k, a[k].at-a[k-1].at, wire, d)
			}
		}
	}
	for id, n := range h.nodes {
		if tp := n.tel.drainTimerPasses.Load() - primed[id]; tp != 0 {
			t.Fatalf("node %d ran %d deficit-timer passes on a link with budget to spare", id, tp)
		}
	}
}

// timedSink records when each media datagram was submitted, per
// destination, and how many submits ran at once.
type timedSink struct {
	clock sim.Clock
	hold  time.Duration // sleep inside a submit (widens the window for races)

	mu      sync.Mutex
	at      map[int][]time.Duration
	seqs    map[int]map[uint32][]uint16 // destination → SSRC → sequence numbers in submit order
	active  atomic.Int32
	overlap atomic.Int32 // submits that found another one in progress
}

func newTimedSink(clock sim.Clock) *timedSink {
	return &timedSink{clock: clock, at: map[int][]time.Duration{}, seqs: map[int]map[uint32][]uint16{}}
}

func (s *timedSink) record(to int, hdr []byte) {
	if len(hdr) < wire.RTPHeaderLen+12 || hdr[0] != wire.MsgRTP {
		return
	}
	r := hdr[wire.RTPHeaderLen:]
	seq, ssrc := binary.BigEndian.Uint16(r[2:]), binary.BigEndian.Uint32(r[8:])
	s.mu.Lock()
	s.at[to] = append(s.at[to], s.clock.Now())
	if s.seqs[to] == nil {
		s.seqs[to] = map[uint32][]uint16{}
	}
	s.seqs[to][ssrc] = append(s.seqs[to][ssrc], seq)
	s.mu.Unlock()
}

func (s *timedSink) Send(from, to int, data []byte) error {
	s.record(to, data) // control and RTCP: not a pass, not counted
	return nil
}

func (s *timedSink) SendBatch(from, to int, vecs []wire.Vec) error {
	if s.active.Add(1) > 1 {
		s.overlap.Add(1)
	}
	for _, v := range vecs {
		s.record(to, v.Hdr)
	}
	if s.hold > 0 {
		time.Sleep(s.hold)
	}
	s.active.Add(-1)
	return nil
}

func (s *timedSink) count(to int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.at[to])
}

// TestBackloggedLinkSpacesPacketsAtItsRate: a burst onto an 8 Mbit/s link
// leaves one MTU bank at once and the rest one deficit at a time — a packet
// every size × 8 / rate, not a clump every 2 ms.
func TestBackloggedLinkSpacesPacketsAtItsRate(t *testing.T) {
	loop := sim.NewLoop(22)
	sink := newTimedSink(loop)
	n := New(Config{ID: 0, Clock: loop, Net: sink, IsOverlay: func(id int) bool { return id < 1000 }})
	const sid, burst = 62, 40
	sub := wire.Subscribe{StreamID: sid, Requester: 1}
	n.OnMessage(1, sub.Marshal(nil))
	loop.RunUntil(time.Second)
	size := 0
	for _, pkt := range frameOf(media.NewPacketizer(sid), media.FrameP, 1, burst) {
		frame := wire.FrameRTP(nil, 0, pkt.Marshal(nil))
		size = len(frame) // all of one size
		n.OnMessage(1000, frame)
	}
	loop.RunUntil(2 * time.Second)

	at := sink.at[1]
	if len(at) != burst {
		t.Fatalf("link sent %d of %d packets", len(at), burst)
	}
	gap := time.Duration(float64(size*8) / 8e6 * float64(time.Second))
	if at[0] != time.Second || at[1] != time.Second {
		t.Fatalf("the idle link's one-MTU bank should release two packets at once, got %v and %v", at[0], at[1])
	}
	for i := 3; i < burst; i++ {
		if d := at[i] - at[i-1] - gap; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("packet %d left %v after its predecessor, want %v (one packet at 8 Mbit/s)", i, at[i]-at[i-1], gap)
		}
	}
	if got, want := n.tel.drainTimerPasses.Load(), uint64(burst-2); got < want-1 || got > want+1 {
		t.Fatalf("%d deficit-timer passes for %d paced packets", got, want)
	}
}

// TestConcurrentKicksKeepLinkOrder drives one node from several goroutines
// under the real clock (run it with -race): every link's packets reach the
// transport in queue order, per stream, whether a pass was started by an
// arrival or by the deficit timer, and no two passes ever flush at once.
func TestConcurrentKicksKeepLinkOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		rateBps float64
		hold    time.Duration // a slow transport: kicks land while the pass is flushing
	}{
		{"in budget", 1e12, 20 * time.Microsecond},
		{"deficit timer", 60e6, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := sim.NewRealClock()
			sink := newTimedSink(clock)
			sink.hold = tc.hold
			n := New(Config{ID: 0, Clock: clock, Net: sink, IsOverlay: func(id int) bool { return id < 1000 },
				InitialRateBps: tc.rateBps, MinRateBps: tc.rateBps, MaxRateBps: tc.rateBps})
			defer n.Close()
			const streams, subs, pkts = 4, 3, 400
			for s := 0; s < streams; s++ {
				for d := 1; d <= subs; d++ {
					sub := wire.Subscribe{StreamID: uint32(100 + s), Requester: uint16(d)}
					n.OnMessage(d, sub.Marshal(nil))
				}
			}
			var wg sync.WaitGroup
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					pz := media.NewPacketizer(uint32(100 + s))
					for sent, id := 0, uint32(0); sent < pkts; id++ {
						for _, pkt := range frameOf(pz, media.FrameP, id, 4) {
							n.OnMessage(1000+s, wire.FrameRTP(nil, 0, pkt.Marshal(nil)))
							sent++
						}
					}
				}(s)
			}
			wg.Wait()
			deadline := time.Now().Add(20 * time.Second)
			for d := 1; d <= subs; d++ {
				for sink.count(d) < streams*pkts {
					if time.Now().After(deadline) {
						t.Fatalf("link %d carried %d of %d packets", d, sink.count(d), streams*pkts)
					}
					time.Sleep(time.Millisecond)
				}
			}
			if o := sink.overlap.Load(); o != 0 {
				t.Fatalf("%d submits ran beside another pass's", o)
			}
			sink.mu.Lock()
			defer sink.mu.Unlock()
			for d := 1; d <= subs; d++ {
				for ssrc, seqs := range sink.seqs[d] {
					for i, seq := range seqs {
						if seq != uint16(i) {
							t.Fatalf("link %d, stream %d: packet %d on the wire is seq %d", d, ssrc, i, seq)
						}
					}
				}
			}
			timer, arrival := n.tel.drainTimerPasses.Load(), n.tel.drainPasses.Load()
			// (A fresh link starts on one MTU of budget, so even the fast
			// case may see a timer pass or two.)
			if arrival == 0 || (tc.rateBps < 1e12 && timer == 0) {
				t.Fatalf("%d arrival passes, %d timer passes at %g bit/s", arrival, timer, tc.rateBps)
			}
		})
	}
}

// TestSequenceWrap carries one stream across 65535→0 through everything
// that compares sequence numbers: the fan-out, a NACK/RTX round for
// packets lost on either side of the wrap, a local viewer primed from a
// GoP cache that holds the wrap, and a downstream node subscribing late
// (cache-hit prime over the overlay). Every receiver must see each packet
// exactly once, from its first on.
func TestSequenceWrap(t *testing.T) {
	pin := func(c *Config) { c.InitialRateBps, c.MinRateBps, c.MaxRateBps = 100e6, 100e6, 100e6 }
	h := newTunedHarness(t, 23, []int{0, 1, 2}, pin)
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(0, 1, 30*time.Millisecond, 0)
	h.link(1, 2, 30*time.Millisecond, 0)
	for v, at := range []int{1, 1, 2} {
		h.link(at, viewerBase+v, 10*time.Millisecond, 0)
		h.addViewer(viewerBase + v)
	}
	const sid = 63
	// 10-packet I frames and 3-packet P frames: 157 packets per 2 s GoP.
	// The third GoP starts at packet 314 (t = 4 s); the wrap comes 75
	// packets into it, at t = 5 s.
	const wrapAt = 314 + 75
	const first = uint16(1<<16 - wrapAt)
	// Node 1 loses four packets around the wrap once; the copies it NACKs
	// for get through.
	dropped := map[uint16]bool{}
	h.net.Handle(1, func(from int, data []byte) {
		if from == 0 && wire.Kind(data) == wire.MsgRTP {
			_, rtpData, _ := wire.UnframeRTP(data)
			var p rtp.Packet
			if p.Unmarshal(rtpData) == nil {
				if seq := p.SequenceNumber; (seq >= 65534 || seq <= 1) && !dropped[seq] {
					dropped[seq] = true
					return
				}
			}
		}
		h.nodes[1].OnMessage(from, data)
	})
	pz := media.NewPacketizer(sid)
	total := 0
	for i := 0; i < 300; i++ {
		i := i
		h.loop.AfterFunc(time.Duration(i)*40*time.Millisecond, func() {
			ft, pkts := media.FrameP, 3
			if i%50 == 0 {
				ft, pkts = media.FrameI, 10
			}
			for _, pkt := range frameOf(pz, ft, uint32(i), pkts) {
				pkt.SequenceNumber += first
				total++
				h.net.Send(broadcasterID, 0, wire.FrameRTP(nil, uint32(h.loop.Now()/(10*time.Microsecond)), pkt.Marshal(nil)))
			}
		})
	}
	h.paths[sid] = [][]int{{0, 1}}
	h.loop.AfterFunc(500*time.Millisecond, func() { h.nodes[1].AttachViewer(viewerBase, sid) })
	h.loop.AfterFunc(5500*time.Millisecond, func() {
		if !h.nodes[1].AttachViewer(viewerBase+1, sid) {
			t.Error("late viewer at node 1 should be a local hit")
		}
	})
	h.loop.AfterFunc(5600*time.Millisecond, func() {
		h.paths[sid] = [][]int{{0, 1, 2}}
		h.nodes[2].AttachViewer(viewerBase+2, sid)
	})
	h.loop.RunUntil(14 * time.Second)

	if len(dropped) != 4 {
		t.Fatalf("dropped %d packets around the wrap, want 4", len(dropped))
	}
	m := h.nodes[1].Metrics()
	if m.HolesRecovered != 4 || m.HolesAbandoned != 0 {
		t.Fatalf("node 1 recovered %d holes and abandoned %d, want 4 and 0", m.HolesRecovered, m.HolesAbandoned)
	}
	if h.nodes[1].Metrics().CacheHitPrimes == 0 {
		t.Fatal("node 2's late subscription should have been primed from node 1's cache")
	}
	last := first + uint16(total) - 1
	for v := 0; v < 3; v++ {
		got := h.viewerRecv[viewerBase+v]
		if len(got) == 0 {
			t.Fatalf("viewer %d received nothing", v)
		}
		// Offsets from the first packet the viewer was sent; late viewers
		// start at the I frame of the GoP that holds the wrap.
		base := got[0].SequenceNumber
		if v > 0 && base != first+314 {
			t.Fatalf("viewer %d was primed from seq %d, want the third GoP's first packet %d", v, base, first+314)
		}
		seen := map[uint16]bool{}
		for _, p := range got {
			if seen[p.SequenceNumber] {
				t.Fatalf("viewer %d received seq %d twice", v, p.SequenceNumber)
			}
			seen[p.SequenceNumber] = true
		}
		for seq := base; seq != last+1; seq++ {
			if !seen[seq] {
				t.Fatalf("viewer %d never received seq %d (first %d, last %d)", v, seq, base, last)
			}
		}
		if !seen[65535] || !seen[0] {
			t.Fatalf("viewer %d's packets do not span the wrap", v)
		}
	}
}

// TestRecoveredPacketQueuesBehindPrime: a subscriber's first packet of a
// stream must be the start of its GoP prime. A recovered packet fanned out
// in the retransmission class while that prime still sits behind another
// stream's backlog used to reach the subscriber first, and its delivery
// front — with the GoP cache every later viewer there is primed from —
// started past the I frame. Once the subscriber has been seen through
// one recovered packet, the next ones jump the video queue as before.
func TestRecoveredPacketQueuesBehindPrime(t *testing.T) {
	loop := sim.NewLoop(24)
	sink := newTimedSink(loop)
	n := New(Config{ID: 0, Clock: loop, Net: sink, IsOverlay: func(id int) bool { return id < 1000 }})
	const sid, other, down = 64, 65, 1
	feed := func(from int, pkts []rtp.Packet, skip uint16) {
		for _, pkt := range pkts {
			if pkt.SequenceNumber != skip {
				n.OnMessage(from, wire.FrameRTP(nil, 0, pkt.Marshal(nil)))
			}
		}
	}
	// The stream: a 10-packet I frame, then P frames with seq 12 missing.
	pz := media.NewPacketizer(sid)
	gop := frameOf(pz, media.FrameI, 0, 10)
	gop = append(gop, frameOf(pz, media.FrameP, 1, 5)...)
	lost := gop[12]
	feed(1000, gop, 12)
	// Another stream leaves ≈120 ms of backlog on the 8 Mbit/s link.
	sub := wire.Subscribe{StreamID: other, Requester: down}
	n.OnMessage(down, sub.Marshal(nil))
	opz := media.NewPacketizer(other)
	feed(1001, frameOf(opz, media.FrameP, 0, 100), 1<<16-1)
	// The subscription is primed from the cache, behind that backlog; the
	// missing packet turns up before the prime is through.
	sub.StreamID = sid
	n.OnMessage(down, sub.Marshal(nil))
	loop.RunUntil(10 * time.Millisecond)
	feed(1000, []rtp.Packet{lost}, 1<<16-1)
	loop.RunUntil(time.Second)
	got := sink.seqs[down][sid]
	// (13 and 14 came in before the subscription and sit behind the hole,
	// outside the cache: the subscriber NACKs for them.)
	if len(got) != 13 || got[0] != 0 || got[12] != 12 {
		t.Fatalf("the subscriber was sent %v: want the prime 0–11 from the I frame's first packet on, then 12", got)
	}

	// A second loss, found and recovered behind a fresh backlog: by now the
	// subscriber has a delivery front, and the recovered packet goes first.
	more := frameOf(pz, media.FrameP, 2, 5)
	feed(1000, more, more[1].SequenceNumber)
	loop.RunUntil(time.Second + 20*time.Millisecond)
	feed(1001, frameOf(opz, media.FrameP, 1, 100), 1<<16-1)
	feed(1000, more[1:2], 1<<16-1)
	loop.RunUntil(time.Second + 30*time.Millisecond)
	got = sink.seqs[down][sid]
	if got[len(got)-1] != more[1].SequenceNumber || n.link(down).pacer.QueueLen() < 50 {
		t.Fatalf("the recovered packet should leave ahead of the %d queued behind it: sent %v", n.link(down).pacer.QueueLen(), got[13:])
	}
}

// TestLostHeadOfPrimeIsRecovered: a subscription whose prime loses its
// first two packets on the way. The subscriber's first packet says how far
// into its frame it sits, so the ones before it are holes: NACKed and
// recovered. Its GoP cache then starts at the I frame, and a viewer
// attached later is primed from the I frame's first packet — it used to
// start inside the frame, where nothing can decode it.
func TestLostHeadOfPrimeIsRecovered(t *testing.T) {
	h := newHarness(t, 25, []int{0, 1})
	h.link(broadcasterID, 0, 10*time.Millisecond, 0)
	h.link(0, 1, 30*time.Millisecond, 0)
	for v := 0; v < 2; v++ {
		h.link(1, viewerBase+v, 10*time.Millisecond, 0)
		h.addViewer(viewerBase + v)
	}
	const sid = 66
	dropped := map[uint16]bool{}
	h.net.Handle(1, func(from int, data []byte) {
		if from == 0 && wire.Kind(data) == wire.MsgRTP {
			_, rtpData, _ := wire.UnframeRTP(data)
			var p rtp.Packet
			if p.Unmarshal(rtpData) == nil && p.SequenceNumber < 2 && !dropped[p.SequenceNumber] {
				dropped[p.SequenceNumber] = true
				return
			}
		}
		h.nodes[1].OnMessage(from, data)
	})
	pz := media.NewPacketizer(sid)
	for i := 0; i < 50; i++ {
		i := i
		h.loop.AfterFunc(time.Duration(i)*40*time.Millisecond, func() {
			ft, pkts := media.FrameP, 3
			if i == 0 {
				ft, pkts = media.FrameI, 10
			}
			for _, pkt := range frameOf(pz, ft, uint32(i), pkts) {
				h.net.Send(broadcasterID, 0, wire.FrameRTP(nil, uint32(h.loop.Now()/(10*time.Microsecond)), pkt.Marshal(nil)))
			}
		})
	}
	h.paths[sid] = [][]int{{0, 1}}
	h.loop.AfterFunc(500*time.Millisecond, func() { h.nodes[1].AttachViewer(viewerBase, sid) })
	h.loop.AfterFunc(1500*time.Millisecond, func() {
		if !h.nodes[1].AttachViewer(viewerBase+1, sid) {
			t.Error("the late viewer should be a local hit")
		}
	})
	h.loop.RunUntil(3 * time.Second)

	if m := h.nodes[1].Metrics(); len(dropped) != 2 || m.HolesRecovered != 2 || m.HolesAbandoned != 0 {
		t.Fatalf("dropped %d packets; node 1 recovered %d holes and abandoned %d, want 2, 2 and 0", len(dropped), m.HolesRecovered, m.HolesAbandoned)
	}
	for v := 0; v < 2; v++ {
		seen := map[uint16]bool{}
		for _, p := range h.viewerRecv[viewerBase+v] {
			seen[p.SequenceNumber] = true
		}
		for seq := uint16(0); seq < 10; seq++ {
			if !seen[seq] {
				t.Fatalf("viewer %d never received seq %d of the I frame (%d packets in all)", v, seq, len(seen))
			}
		}
	}
	if got := h.viewerRecv[viewerBase+1]; got[0].SequenceNumber != 0 {
		t.Fatalf("the late viewer was primed from seq %d, want the I frame's first packet", got[0].SequenceNumber)
	}
}
