package livenet

import (
	"encoding/binary"
	"os"
	"strings"
	"testing"
	"time"

	"livenet/internal/client"
	"livenet/internal/core"
	"livenet/internal/media"
	"livenet/internal/netem"
	"livenet/internal/node"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/wire"
)

// forwardHarness drives one overlay node's fast forwarding path
// (broadcaster upload -> producer -> one overlay subscriber) packet by
// packet, for the telemetry zero-overhead benchmark and regression test.
type forwardHarness struct {
	loop     *sim.Loop
	seq      uint16
	rtpBuf   []byte
	frameBuf []byte
	send     func(data []byte)
}

func newForwardHarness(reg *telemetry.Registry) *forwardHarness {
	const (
		producer    = 0
		subscriber  = 1
		broadcaster = 1000
		sid         = 100
	)
	loop := sim.NewLoop(1)
	net := netem.New(loop, loop.RNG("netem"))
	link := netem.LinkConfig{RTT: 10 * time.Millisecond, BandwidthBps: 1e9}
	net.AddDuplex(broadcaster, producer, link)
	net.AddDuplex(producer, subscriber, link)
	mk := func(id int, r *telemetry.Registry) *node.Node {
		return node.New(node.Config{
			ID: id, Clock: loop, Net: net,
			PathLookup: func(_ uint32, _ int, cb func([][]int, error)) { cb(nil, nil) },
			LinkRTT:    func(int) time.Duration { return 10 * time.Millisecond },
			IsOverlay:  func(id int) bool { return id < broadcaster },
			MinRateBps: 10e6,
			Telemetry:  r,
		})
	}
	n0 := mk(producer, reg)
	n1 := mk(subscriber, nil)
	net.Handle(producer, n0.OnMessage)
	net.Handle(subscriber, n1.OnMessage)

	// One real encoded packet as the wire template; each step patches the
	// sequence number in place so the hole detector sees a gapless flow.
	enc := media.NewEncoder(media.DefaultEncoderConfig(1_000_000), loop.RNG("media"))
	pz := media.NewPacketizer(sid)
	pkts := pz.Packetize(enc.NextFrame(), 200, nil)
	h := &forwardHarness{loop: loop, seq: pkts[0].SequenceNumber, rtpBuf: pkts[0].Marshal(nil)}
	h.send = func(data []byte) { net.Send(broadcaster, producer, data) }

	// Adopt the producer role, then subscribe the downstream node.
	h.step()
	sub := wire.Subscribe{StreamID: sid, Requester: subscriber}
	net.Send(subscriber, producer, sub.Marshal(nil))
	loop.RunUntil(loop.Now() + 50*time.Millisecond)
	return h
}

// step pushes one RTP packet through ingress -> classify -> forward ->
// pacer drain and advances the clock 2 ms: the packets' spacing (and
// time for it to cross the 5 ms link within a few steps).
func (h *forwardHarness) step() {
	h.seq++
	binary.BigEndian.PutUint16(h.rtpBuf[2:], h.seq)
	now10us := uint32(h.loop.Now() / (10 * time.Microsecond))
	h.frameBuf = wire.FrameRTP(h.frameBuf[:0], now10us, h.rtpBuf)
	h.send(h.frameBuf)
	h.loop.RunUntil(h.loop.Now() + 2*time.Millisecond)
}

// Enabling the metrics registry must not add allocations to the node's
// forward path: every instrument is a pre-resolved atomic counter.
func TestForwardPathTelemetryAddsNoAllocs(t *testing.T) {
	off := newForwardHarness(nil)
	on := newForwardHarness(telemetry.NewRegistry())
	allocsOff := testing.AllocsPerRun(500, off.step)
	allocsOn := testing.AllocsPerRun(500, on.step)
	if allocsOn > allocsOff+0.5 {
		t.Fatalf("telemetry added allocations on the forward path: %.2f/op with registry vs %.2f/op without", allocsOn, allocsOff)
	}
}

// Every metric name registered by an instrumented cluster must be
// documented in OBSERVABILITY.md — the docs-freshness gate run by
// `make docs` (and `make ci`).
func TestObservabilityDocCoversMetrics(t *testing.T) {
	doc, err := os.ReadFile("OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("OBSERVABILITY.md: %v", err)
	}
	c := core.NewCluster(core.ClusterConfig{Seed: 1, Sites: 4, Telemetry: true})
	defer c.Close()
	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[:1])
	bc.Start()
	c.Run(2 * time.Second)
	c.NewViewerAt(39.9, 116.4, bc.StreamID(0))
	c.Run(3 * time.Second)

	// Replicated and federated clusters register additional brain.* /
	// brainfed.* instruments on their BrainTel; the doc must cover the
	// whole catalogue, not just the single-Brain subset.
	rep := core.NewCluster(core.ClusterConfig{Seed: 2, Sites: 4, Replicas: 3, Telemetry: true})
	defer rep.Close()
	fed := core.NewCluster(core.ClusterConfig{Seed: 3, Sites: 12, Regions: 3, Telemetry: true})
	defer fed.Close()

	// Cohort-aggregated macro runs publish population-weighted QoE as
	// cohort.* instruments (DESIGN.md §11); walk that registry too.
	var cohort client.Cohort
	cohort.AddViewer(120, 25, 2, 30, 400, 0, 0)
	cohort.AddBatch(1000, client.CohortBatch{MeanViewSecs: 72.5, PZeroStall: 0.97, PFastStart: 0.95})
	cohortTel := telemetry.NewRegistry()
	cohort.Publish(cohortTel)

	var missing []string
	seen := 0
	for _, r := range []*telemetry.Registry{c.NodeTel[0], c.ClientTel, c.NetTel, c.BrainTel, rep.BrainTel, fed.BrainTel, cohortTel} {
		for _, name := range r.Names() {
			seen++
			if !strings.Contains(string(doc), name) {
				missing = append(missing, name)
			}
		}
	}
	if seen < 20 {
		t.Fatalf("only %d metrics registered; the instrumented cluster should expose the full catalogue", seen)
	}
	if len(missing) > 0 {
		t.Fatalf("metrics missing from OBSERVABILITY.md: %v", missing)
	}
}
