package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

// The metrics every workload reports: the first four are the end-to-end
// ones BENCHMARK.json bounds per (metric, workload) pair, the last two are
// recorded per layer. README.md says what each pair measures (for example
// throughput_per_s on trunk-relay is trunk_pps, control_ms on
// live-lossy is a viewer's join).
const (
	mSetup      = "setup_s"
	mThroughput = "throughput_per_s"
	mLatP50     = "latency_ms.p50"
	mControl    = "control_ms"
	mLatTail    = "latency_ms.p95"
	mCPU        = "cpu_ms_per_kop"
)

// tailP is the percentile behind mLatTail.
const tailP = 0.95

// setupRuns is how many times an untraced run sets up; setup_s is their
// median.
const setupRuns = 3

// failBound is the largest share of failed operations a run may report and
// still be correct. Every workload is built so that nothing fails (all
// baseline runs read 0), so this is the +0.01 absolute bound on fail_ratio.
const failBound = 0.01

// lateBound is the same for fail_ratio where it also counts operations that
// completed past their limit (live-lossy: a view playing after more than
// 1 s, or stalled). Those depend on how the box schedules the process, so
// a quiet box reads 0 and a busy one a few in a thousand; ISSUE 11 accepts
// up to 0.05.
const lateBound = 0.05

// workloadSpec names a workload; BENCHMARK.json says why it exists.
type workloadSpec struct {
	name    string
	sockets bool // has seams to wrap: a traced run differs from an untraced one
	run     func(o runOpts) (*runResult, error)
}

var workloads = []workloadSpec{
	{"trunk-relay", true, runTrunkRelay},
	{"edge-fanout", true, runEdgeFanout},
	{"live-lossy", true, runLiveLossy},
	{"brain-serve", true, runBrainServe},
	{"sim-replay", false, runSimReplay},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runOpts are the inputs of one workload run.
type runOpts struct {
	seed    int64
	seconds float64 // measured window
	trace   bool    // install the bench-owned wrappers and report the traced metrics
	small   bool    // reduced size: the smoke tests only
	setups  int     // how many times set-up runs; runOne sets it
}

func (o runOpts) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// runResult is what one workload run measured.
type runResult struct {
	attempted, failed int64
	late              int64     // completed, but past the workload's limit: in fail_ratio, not in failed
	errs              []string  // validity checks that failed
	m                 metricSet // every metric this run measured
	text              []string  // waterfalls and notes for the report
	spans             []span
}

func (r *runResult) errorf(format string, a ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
}

// headline is what a run hands to endToEnd: the figures behind the four
// end-to-end metrics and the two per-layer ones every workload shares.
type headline struct {
	setups     []time.Duration
	throughput float64
	ops        int64 // operations behind throughput and CPU per operation
	latP50     float64
	latTail    float64
	latN       int
	control    float64 // typical time of the workload's control-plane operation, ms
	controlN   int
	cpu        time.Duration
}

// endToEnd records the end-to-end metrics of a run.
func (r *runResult) endToEnd(h headline) {
	sort.Slice(h.setups, func(i, j int) bool { return h.setups[i] < h.setups[j] })
	r.m.put(mSetup, "s", h.setups[len(h.setups)/2].Seconds(), len(h.setups))
	r.m.put(mThroughput, "1/s", h.throughput, int(h.ops))
	r.m.put(mLatP50, "ms", h.latP50, h.latN)
	r.m.put(mControl, "ms", h.control, h.controlN)
	r.m.put(mLatTail, "ms", h.latTail, h.latN)
	perK := 0.0
	if h.ops > 0 {
		perK = float64(h.cpu) / float64(time.Millisecond) / (float64(h.ops) / 1000)
	}
	r.m.put(mCPU, "ms", perK, int(h.ops))
	r.m.put("fail_ratio", "ratio", float64(r.failed+r.late)/float64(max(r.attempted, 1)), int(r.attempted))
}

// latency fills a headline's latency figures from a sample in ms and
// describes it in the report.
func (r *runResult) latency(h *headline, lat *sample) {
	r.text = append(r.text, "  end-to-end latency: "+lat.describe("ms")+"\n")
	h.latP50, h.latTail, h.latN = lat.pct(0.5), lat.pct(tailP), lat.n()
}

// controlOp fills a headline's control figure from a sample in ms.
func (r *runResult) controlOp(h *headline, what string, s *sample) {
	r.text = append(r.text, "  "+what+": "+s.describe("ms")+"\n")
	h.control, h.controlN = s.pct(0.5), s.n()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// waitUntil polls cond every step until it holds or timeout passes.
func waitUntil(timeout, step time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(step)
	}
	return true
}

// stoppedTimer is a timer for await: one per loop, reused for every wait.
func stoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// await receives one token from ch, giving up after d. The caller owns t
// (from stoppedTimer) and reuses it: a time.After per wait would leave one
// pending timer, and its garbage, per operation in the process under
// measurement.
func await(ch <-chan struct{}, t *time.Timer, d time.Duration) bool {
	select {
	case <-ch:
		return true
	default:
	}
	t.Reset(d)
	select {
	case <-ch:
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		return true
	case <-t.C:
		return false
	}
}
