package main

import (
	"fmt"
	"time"

	"livenet/internal/brain"
	"livenet/internal/node"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/udprun"
)

// clientIDBase mirrors livenet-node's -client-id-base default: IDs below
// it are overlay nodes, IDs at or above it are clients.
const clientIDBase = 1000

// farRTT is reported for links a workload wants the Brain to avoid.
const farRTT = 200 * time.Millisecond

// overlayOpts describes the slice of LiveNet a socket workload runs on.
type overlayOpts struct {
	nodes int
	// near reports whether the directed link i→j is a 1 ms link; every
	// other pair is reported at farRTT, so paths follow the near links.
	near func(i, j int) bool
	// tune adjusts a node's Config after the binaries' defaults are set
	// (nil: defaults). Only fields a workload line names may change.
	tune func(cfg *node.Config)
	// drop, when set, wraps node id's handler with a bench-owned receive
	// drop (outside the trace wrapper: a dropped datagram never reaches
	// the node).
	drop func(id int, next func(from int, data []byte)) func(from int, data []byte)
	tr   *tracer
	reg  *telemetry.Registry // traced run only: source of the udprun.* counts
}

// overlay is a Streaming Brain behind udprun.BrainServer plus N nodes on
// loopback UDP sockets, wired exactly as cmd/livenet-node does it
// (endpoint → BrainClient → node; handler chain prober → brain client →
// node.OnMessage), condensed into one process as cmd/livenet-demo does.
type overlay struct {
	clock *sim.RealClock
	br    *brain.Brain
	srv   *udprun.BrainServer
	nodes []*node.Node
	eps   []*udprun.Endpoint
}

func newOverlay(o overlayOpts) (*overlay, error) {
	ov := &overlay{clock: sim.NewRealClock()}
	ov.br = brain.New(brain.Config{N: o.nodes})
	for i := 0; i < o.nodes; i++ {
		for j := 0; j < o.nodes; j++ {
			if i == j {
				continue
			}
			rtt := farRTT
			if o.near(i, j) {
				rtt = time.Millisecond
			}
			ov.br.ReportLink(i, j, rtt, 0, 0.1)
		}
	}
	srv, err := udprun.NewBrainServer(ov.br, "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("brain server: %w", err)
	}
	ov.srv = srv
	for id := 0; id < o.nodes; id++ {
		ep, err := udprun.ListenOpts(id, "127.0.0.1:0", udprun.Options{Shards: 1, Batch: udprun.DefaultBatch, Telemetry: o.reg})
		if err != nil {
			ov.close()
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
		ov.eps = append(ov.eps, ep)
		cli, err := udprun.NewBrainClient(ep, srv.Addr())
		if err != nil {
			ov.close()
			return nil, fmt.Errorf("node %d: %w", id, err)
		}
		id := id
		cfg := node.Config{
			ID:          id,
			Clock:       ov.clock,
			Net:         o.tr.wrapNet(id, ep),
			PathLookup:  o.tr.wrapLookup(id, cli.Lookup),
			OnNewStream: func(sid uint32) { cli.RegisterStream(sid, id) },
			IsOverlay:   func(peer int) bool { return peer < clientIDBase },
			Telemetry:   o.reg,
		}
		if o.tune != nil {
			o.tune(&cfg)
		}
		nd := node.New(cfg)
		ov.nodes = append(ov.nodes, nd)
		prober := udprun.NewProber(ep)
		h := o.tr.wrapHandler(id, prober.WrapHandler(cli.WrapHandler(nd.OnMessage)))
		if o.drop != nil {
			h = o.drop(id, h)
		}
		ep.Serve(h)
	}
	for i := range ov.eps {
		for j := range ov.eps {
			if i != j {
				if err := ov.eps[i].AddPeer(j, ov.eps[j].Addr()); err != nil {
					ov.close()
					return nil, err
				}
			}
		}
	}
	return ov, nil
}

func (ov *overlay) close() {
	for _, n := range ov.nodes {
		n.Close()
	}
	for _, ep := range ov.eps {
		ep.Close()
	}
	if ov.srv != nil {
		ov.srv.Close()
	}
	ov.br.Close()
}

// nodeTotals sums the nodes' cumulative counters.
func (ov *overlay) nodeTotals() node.Metrics {
	var t node.Metrics
	for _, n := range ov.nodes {
		m := n.Metrics()
		t.PacketsReceived += m.PacketsReceived
		t.PacketsForwarded += m.PacketsForwarded
		t.NACKsSent += m.NACKsSent
		t.Retransmits += m.Retransmits
		t.HolesAbandoned += m.HolesAbandoned
		t.LocalHits += m.LocalHits
		t.PathLookups += m.PathLookups
	}
	return t
}

// nodeCounts turns the difference of two counter snapshots into the
// node.* count metrics.
func nodeCounts(m *metricSet, a, b node.Metrics, attaches, hits int) {
	fwd := float64(b.PacketsForwarded - a.PacketsForwarded)
	perK := func(x uint64) float64 {
		if fwd == 0 {
			return 0
		}
		return 1000 * float64(x) / fwd
	}
	m.put("node.rtx_per_kpkt", "1/kpkt", perK(b.Retransmits-a.Retransmits), int(fwd))
	m.put("node.nacks_per_kpkt", "1/kpkt", perK(b.NACKsSent-a.NACKsSent), int(fwd))
	m.put("node.holes_abandoned", "count", float64(b.HolesAbandoned-a.HolesAbandoned), 0)
	ratio := 0.0
	if attaches > 0 {
		ratio = float64(hits) / float64(attaches)
	}
	m.put("node.local_hit_ratio", "ratio", ratio, attaches)
}

// udprunCounts derives the udprun.* and pktbuf.* count metrics from the
// traced run's registry.
func udprunCounts(m *metricSet, a, b telemetry.Snapshot) {
	d := b.Diff(a)
	mean := func(name string) (float64, int) {
		h, ok := d.Histograms[name]
		if !ok || h.Count == 0 {
			return 0, 0
		}
		return h.Mean(), int(h.Count)
	}
	v, n := mean("udprun.rx_batch")
	m.put("udprun.rx_batch_mean", "pkt", v, n)
	v, n = mean("udprun.tx_batch")
	m.put("udprun.tx_batch_mean", "pkt", v, n)
	m.put("udprun.rx_dropped", "count", float64(d.Counters["udprun.rx_dropped"]), 0)
	hits := d.Counters["udprun.pool_hits"] + d.Counters["node.frame_pool_hits"]
	misses := d.Counters["udprun.pool_misses"] + d.Counters["node.frame_pool_misses"]
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m.put("pktbuf.pool_hit_ratio", "ratio", ratio, int(hits+misses))
}
