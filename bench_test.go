package livenet

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6), plus the DESIGN.md ablations and transport
// micro-benchmarks. The table/figure benchmarks share a single
// quick-scale evaluation pair (computed once) and report the headline
// numbers as custom metrics, so `go test -bench=.` regenerates the whole
// evaluation's shape in one run. cmd/livenet-bench runs the full-scale
// (20-day) version and writes EXPERIMENTS.md.

import (
	"sync"
	"testing"
	"time"

	"livenet/internal/core"
	"livenet/internal/eval"
	"livenet/internal/gcc"
	"livenet/internal/media"
	"livenet/internal/netem"
	"livenet/internal/perfbench"
	"livenet/internal/rtp"
	"livenet/internal/sim"
	"livenet/internal/telemetry"
	"livenet/internal/wire"
)

var (
	benchOnce sync.Once
	benchRes  *eval.Results
)

// benchResults runs the shared quick evaluation pair once.
func benchResults(b *testing.B) *eval.Results {
	b.Helper()
	benchOnce.Do(func() { benchRes = eval.Run(eval.Quick()) })
	return benchRes
}

// --- Tables and figures (§6) ---

func BenchmarkTable1Overall(b *testing.B) {
	r := benchResults(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = eval.Table1(r)
	}
	_ = out
	b.ReportMetric(r.LN.CDNDelayMs.Median(), "cdn_ms_livenet")
	b.ReportMetric(r.HR.CDNDelayMs.Median(), "cdn_ms_hier")
	b.ReportMetric(r.LN.Streaming.Median(), "stream_ms_livenet")
	b.ReportMetric(r.HR.Streaming.Median(), "stream_ms_hier")
	b.ReportMetric(r.LN.ZeroStall.Percent(), "zerostall_pct_livenet")
	b.ReportMetric(r.HR.ZeroStall.Percent(), "zerostall_pct_hier")
	b.ReportMetric(r.LN.FastStart.Percent(), "faststart_pct_livenet")
	b.ReportMetric(r.HR.FastStart.Percent(), "faststart_pct_hier")
}

func BenchmarkFig2PathDelayTimeSeries(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig2(r)
	}
	b.ReportMetric(r.LN.CDNDelayMs.Median(), "livenet_ms")
	b.ReportMetric(r.HR.CDNDelayMs.Median(), "hier_ms")
}

func BenchmarkFig8aStreamingDelayCDF(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig8a(r)
	}
	b.ReportMetric(r.HR.Streaming.Percentile(60)-r.LN.Streaming.Percentile(60), "gain_ms_p60")
}

func BenchmarkFig8bStallHistogram(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig8b(r)
	}
	b.ReportMetric(100-r.LN.ZeroStall.Percent(), "stalled_pct_livenet")
	b.ReportMetric(100-r.HR.ZeroStall.Percent(), "stalled_pct_hier")
}

func BenchmarkFig8cFastStartupDaily(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig8c(r)
	}
	b.ReportMetric(r.LN.FastStart.Percent(), "livenet_pct")
	b.ReportMetric(r.HR.FastStart.Percent(), "hier_pct")
}

func BenchmarkFig9StartupVsDelay(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig9(r)
	}
	if bucket := r.LN.StartupByDelay["(1000,1500]"]; bucket != nil && bucket.Total > 0 {
		b.ReportMetric(bucket.Percent(), "faststart_pct_1000_1500ms")
	}
}

func BenchmarkFig10aBrainResponse(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig10a(r)
	}
	all := 0.0
	n := 0
	for _, h := range r.LN.RespByHour.Buckets() {
		all += r.LN.RespByHour.Bucket(h).Median()
		n++
	}
	if n > 0 {
		b.ReportMetric(all/float64(n), "median_resp_ms")
	}
}

func BenchmarkFig10bLocalHitRatio(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig10b(r)
	}
	hits, total := 0, 0
	for _, h := range r.LN.HitByHour {
		hits += h.Hits
		total += h.Total
	}
	if total > 0 {
		b.ReportMetric(100*float64(hits)/float64(total), "hit_pct")
	}
}

func BenchmarkFig10cFirstPacketDelay(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig10c(r)
	}
	sum, n := 0.0, 0
	for _, h := range r.LN.FirstPktByHour.Buckets() {
		sum += r.LN.FirstPktByHour.Bucket(h).Mean()
		n++
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "avg_first_pkt_ms")
	}
}

func BenchmarkTable2PathLength(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Table2(r)
	}
	total := 0
	for _, c := range r.LN.LenCounts {
		total += c
	}
	b.ReportMetric(100*float64(r.LN.LenCounts[2])/float64(total), "len2_pct")
}

func BenchmarkFig11DelayVsLength(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig11(r)
	}
	if s := r.LN.DelayByLen[2]; s != nil {
		b.ReportMetric(s.Median(), "len2_median_ms")
	}
}

func BenchmarkFig12IntraInter(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig12(r)
	}
	b.ReportMetric(r.LN.IntraDelay.Median(), "livenet_intra_ms")
	b.ReportMetric(r.LN.InterDelay.Median(), "livenet_inter_ms")
}

func BenchmarkFig13LossDiurnal(b *testing.B) {
	r := benchResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig13(r)
	}
	peak := 0.0
	for _, h := range r.LN.LossByHour.Buckets() {
		if v := r.LN.LossByHour.Bucket(h).Mean(); v > peak {
			peak = v
		}
	}
	b.ReportMetric(peak, "peak_loss_pct")
}

// benchFest runs the festival evaluation once (needs 13 days).
var (
	festOnce sync.Once
	festRes  *eval.Results
)

func festResults(b *testing.B) *eval.Results {
	b.Helper()
	festOnce.Do(func() {
		o := eval.Quick()
		o.Days = 13
		o.Double12 = true
		festRes = eval.Run(o)
	})
	return festRes
}

func BenchmarkFig14PeakThroughput(b *testing.B) {
	r := festResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Fig14(r)
	}
	normal := r.LN.ByDay[9].PeakConcurrency
	fest := r.LN.ByDay[10].PeakConcurrency
	if normal > 0 {
		b.ReportMetric(float64(fest)/float64(normal), "festival_peak_ratio")
	}
}

func BenchmarkTable3Double12(b *testing.B) {
	r := festResults(b)
	for i := 0; i < b.N; i++ {
		_ = eval.Table3(r)
	}
	if ds := r.LN.ByDay[10]; ds != nil {
		b.ReportMetric(ds.ZeroStall.Percent(), "festival_zerostall_pct")
		b.ReportMetric(ds.FastStart.Percent(), "festival_faststart_pct")
	}
}

// --- Ablations (DESIGN.md) ---

func BenchmarkAblationFastSlowPath(b *testing.B) {
	var r eval.FastSlowResult
	for i := 0; i < b.N; i++ {
		r = eval.AblationFastSlow(1, 0.01)
	}
	b.ReportMetric(r.FastSlowMedianMs, "fastslow_p50_ms")
	b.ReportMetric(r.StoreFwdMedianMs, "storefwd_p50_ms")
}

func BenchmarkAblationLinkWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = eval.AblationLinkWeights(3)
	}
}

func BenchmarkAblationMacroFeatures(b *testing.B) {
	o := eval.Quick()
	o.Days = 1
	var out string
	for i := 0; i < b.N; i++ {
		out = eval.MacroAblations(o)
	}
	_ = out
}

// --- Transport micro-benchmarks ---

func BenchmarkRTPMarshal(b *testing.B) {
	p := rtp.Packet{
		PayloadType: rtp.PayloadVideo, SequenceNumber: 1, SSRC: 7,
		HasDelayExt: true, DelayAccum10us: 100,
		Payload: make([]byte, 1187),
	}
	buf := make([]byte, 0, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = p.Marshal(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkRTPUnmarshal(b *testing.B) {
	p := rtp.Packet{
		PayloadType: rtp.PayloadVideo, HasDelayExt: true,
		Payload: make([]byte, 1187),
	}
	buf := p.Marshal(nil)
	var q rtp.Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkPatchDelayExt(b *testing.B) {
	p := rtp.Packet{HasDelayExt: true, Payload: make([]byte, 1187)}
	buf := p.Marshal(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rtp.PatchDelayExt(buf, 10)
	}
}

func BenchmarkPacerDrain(b *testing.B) {
	p := gcc.NewPacer[int](10e6)
	now := time.Duration(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Push(gcc.Item[int]{Class: gcc.ClassVideo, Size: 1200})
		now += time.Millisecond
		p.Drain(now, func(gcc.Item[int]) {})
	}
}

// The routing and allocation-diet benchmark bodies live in
// internal/perfbench so `livenet-bench -bench-json` can run the same
// code programmatically and snapshot the numbers (BENCH_*.json).

func BenchmarkYenKSPFullMesh(b *testing.B)       { perfbench.YenKSPFullMesh(b) }
func BenchmarkDenseMeshRouting(b *testing.B)     { perfbench.DenseMeshRouting(b) }
func BenchmarkGraphNeighborWeights(b *testing.B) { perfbench.GraphNeighborWeights(b) }
func BenchmarkGeoWorldBuild600(b *testing.B)     { perfbench.GeoWorldBuild600(b) }

// BenchmarkMacroPerViewer10k / MacroCohort10k share a workload at a
// 10k-viewer peak and differ only in the engine — their ns/op ratio is
// the cohort-aggregation speedup. BenchmarkMacroCohort1M is the headline
// scale point: a million-viewer peak (~2M under the flash window) the
// per-viewer engine cannot hold in memory (see DESIGN.md §11).
func BenchmarkMacroPerViewer10k(b *testing.B) { perfbench.MacroPerViewer10k(b) }
func BenchmarkMacroCohort10k(b *testing.B)    { perfbench.MacroCohort10k(b) }
func BenchmarkMacroCohort1M(b *testing.B)     { perfbench.MacroCohort1M(b) }

// BenchmarkBrainPaperScale is a from-scratch Global Routing epoch at the
// paper's fleet scale (600 sites, sparse overlay, k=3);
// BenchmarkBrainEpochChurn is the same epoch when ~1% of links changed —
// the incremental invalidation path. Their per-op ratio is the headline
// of this PR (see EXPERIMENTS.md).
func BenchmarkBrainPaperScale(b *testing.B) { perfbench.BrainPaperScale(b) }
func BenchmarkBrainEpochChurn(b *testing.B) { perfbench.BrainEpochChurn(b) }

// BenchmarkBrainLookupUnderEpoch is the serving path during that round:
// direct Lookup calls while AdvanceEpoch runs on another goroutine.
func BenchmarkBrainLookupUnderEpoch(b *testing.B) { perfbench.BrainLookupUnderEpoch(b) }

// BenchmarkBrainPaperScale2000 stretches the from-scratch epoch to
// N=2000 sites — the scale point the worker-arena engine added (the
// allocation-heavy engine before it did not complete a 2000-site round
// in useful time; see EXPERIMENTS.md).
func BenchmarkBrainPaperScale2000(b *testing.B) { perfbench.BrainPaperScale2000(b) }

// BenchmarkBrainFederatedEpoch / Churn are the sharded counterparts: the
// same 600-site overlay with one Brain shard per region and cross-region
// stitching (see DESIGN.md §10); metrics include the per-shard report
// fan-in the federation trades against the monolith's global ingest.
func BenchmarkBrainFederatedEpoch(b *testing.B) { perfbench.BrainFederatedEpoch(b) }
func BenchmarkBrainFederatedChurn(b *testing.B) { perfbench.BrainFederatedChurn(b) }

func BenchmarkNetemThroughput(b *testing.B) {
	loop := sim.NewLoop(1)
	net := netem.New(loop, loop.RNG("n"))
	net.AddLink(0, 1, netem.LinkConfig{RTT: 10 * time.Millisecond, BandwidthBps: 1e9})
	net.Handle(1, func(int, []byte) {})
	data := make([]byte, 1200)
	b.ReportAllocs()
	b.SetBytes(1200)
	for i := 0; i < b.N; i++ {
		net.Send(0, 1, data)
		if i%1024 == 0 {
			loop.RunUntil(loop.Now() + time.Second)
		}
	}
}

func BenchmarkPacketizeGoP(b *testing.B) {
	enc := media.NewEncoder(media.DefaultEncoderConfig(2_500_000), sim.NewSource(1).Stream("m"))
	pz := media.NewPacketizer(1)
	out := make([]rtp.Packet, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = pz.Packetize(enc.NextFrame(), 100, out[:0])
	}
	_ = out
}

func BenchmarkClusterSecondOfVideo(b *testing.B) {
	// End-to-end packet-level cost of one second of streaming for one
	// broadcaster and one viewer.
	c := core.NewCluster(core.ClusterConfig{Seed: 1, Sites: 8})
	defer c.Close()
	bc := c.NewBroadcasterAt(31.2, 121.5, 100, media.DefaultRenditions[2:])
	bc.Start()
	c.Run(time.Second)
	v := c.NewViewerAt(39.9, 116.4, bc.StreamID(0))
	_ = v
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(time.Second)
	}
}

// --- Allocation diet (event loop, netem, Brain weight cache) ---

func BenchmarkLoopSchedule(b *testing.B) { perfbench.LoopSchedule(b) }
func BenchmarkNetemSend(b *testing.B)    { perfbench.NetemSend(b) }

// --- Data-plane throughput (DESIGN.md §9; pps-denominated) ---

func BenchmarkNodeForwardFanout10(b *testing.B)   { perfbench.NodeForwardFanout10(b) }
func BenchmarkNodeForwardFanout100(b *testing.B)  { perfbench.NodeForwardFanout100(b) }
func BenchmarkNodeForwardFanout1000(b *testing.B) { perfbench.NodeForwardFanout1000(b) }
func BenchmarkUDPLoopbackEcho(b *testing.B)       { perfbench.UDPLoopbackEcho(b) }
func BenchmarkUDPLoopbackBatchRelay(b *testing.B) { perfbench.UDPLoopbackBatchRelay(b) }
func BenchmarkPacerLinkCap(b *testing.B)          { perfbench.PacerLinkCap(b) }
func BenchmarkUDPChainHopLatency(b *testing.B)    { perfbench.UDPChainHopLatency(b) }

// BenchmarkBrainLookup measures the Path Decision serve path across
// quiet routing epochs: with incremental epochs an AdvanceEpoch that saw
// no metric changes is a no-op, so the lookup is a PIB hit served from
// the memoized decision cache (one outer-slice copy per call).
func BenchmarkBrainLookup(b *testing.B) { perfbench.BrainLookup(b) }

// BenchmarkNodeForward measures the node's fast forwarding path
// (broadcaster ingress -> classify -> fan-out -> pacer drain) with the
// telemetry registry disabled and enabled: the on/off delta in allocs/op
// must be ~0 (the instruments are pre-resolved atomic words).
func BenchmarkNodeForward(b *testing.B) {
	run := func(reg *telemetry.Registry) func(*testing.B) {
		return func(b *testing.B) {
			h := newForwardHarness(reg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.step()
			}
		}
	}
	b.Run("telemetry=off", run(nil))
	b.Run("telemetry=on", run(telemetry.NewRegistry()))
}

func BenchmarkWirePathRequest(b *testing.B) {
	req := wire.PathRequest{StreamID: 7, Consumer: 3, Token: 99}
	var got wire.PathRequest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := req.Marshal(nil)
		if err := got.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
