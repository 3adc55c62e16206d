package main

import (
	"fmt"
	"time"

	"livenet/internal/core"
	"livenet/internal/eval"
	"livenet/internal/workload"
)

// simMacroSeed is the seed of the two macro runs. It is fixed (the seed
// internal/perfbench snapshots): the cost of a cohort run moves by ±15 %
// with its seed, which would drown the bound on throughput_per_s. The
// workload seed drives the fault-injection replay.
const simMacroSeed = 1

// simFullHours is the cohort horizon at the benchmark's 15 s window; the
// pinned view counts belong to it.
const simFullHours = 3

// simPins are the macro view counts at simMacroSeed: cohort run at
// simFullHours, and the 48-site dense-mesh day.
var simPins = struct{ cohortViews, denseViews int }{706000, 8522}

// The virtual-clock operations are fixed, single-threaded CPU work, and
// whatever else runs on the box only ever slows them down: it makes them
// half as slow again for a second or for ten, and leaves them alone in
// between. An operation is therefore kept short, run once in each of
// simRounds rounds spread over the window, and reported by its fastest
// run: the shorter it is, the likelier one of its runs went undisturbed.
const (
	simRounds        = 3
	simReports       = 2 // rounds that also replay the whole FaultReport, which takes 3 s: it has to replay byte for byte
	simDensePerRound = 2
)

// faultParts are the five short experiments of eval.FaultReport (the sixth,
// the rolling restart, takes two thirds of the report's time on its own),
// each rendered so that two runs can be compared byte for byte.
var faultParts = []struct {
	name string
	run  func(seed int64) string
}{
	{"relay crash", func(seed int64) string {
		ln, hr := eval.RelayCrashCompare(seed)
		return fmt.Sprintf("%+v %+v", ln, hr)
	}},
	{"cache fallback", func(seed int64) string { return fmt.Sprintf("%+v", eval.CacheFallback(seed)) }},
	{"brain outage", func(seed int64) string { return fmt.Sprintf("%+v", eval.BrainOutage(seed)) }},
	{"quorum partition", func(seed int64) string { return fmt.Sprintf("%+v", eval.QuorumPartition(seed)) }},
	{"flash crowd", func(seed int64) string { return fmt.Sprintf("%+v", eval.FlashCrowdCohort(seed)) }},
}

// cohortConfig is the 10k-peak cohort run of internal/perfbench (32
// sites, ×2 flash crowd in the next-to-last hour, rung shares
// 0.6/0.3/0.1), over the given horizon.
func cohortConfig(hours int) core.MacroConfig {
	cfg := core.MacroConfig{
		Seed:         simMacroSeed,
		Sites:        32,
		Hours:        hours,
		System:       core.SystemLiveNet,
		Viewers:      10_000,
		TracerSample: 2e-5,
		RungShares:   []float64{0.6, 0.3, 0.1},
	}
	if hours >= 3 {
		cfg.Workload.Flash = []workload.FlashEvent{{Start: time.Duration(hours-2) * time.Hour, End: time.Duration(hours-1) * time.Hour, Multiplier: 2}}
	}
	return cfg
}

// denseDayConfig is one macro day on the 48-site full mesh: the only
// caller of the Brain's dense enumerator.
func denseDayConfig() core.MacroConfig {
	cfg := core.MacroConfig{Seed: simMacroSeed, Days: 1, Sites: 48, System: core.SystemLiveNet}
	cfg.Workload.PeakViewsPerSec = 0.2
	return cfg
}

// runSimReplay is fixed work on the virtual clock, sized so that it takes
// about the window on the reference box. -seconds scales the cohort
// horizon; set-up is a one-hour cohort run that warms the heap.
func runSimReplay(o runOpts) (*runResult, error) {
	res := &runResult{}
	hours := min(max(int(o.seconds*simFullHours/15+0.5), 1), 8)
	var setups []time.Duration
	for n := 0; n < o.setups; n++ {
		t0 := time.Now()
		if r := core.RunMacro(cohortConfig(1)); r.Views == 0 {
			return nil, fmt.Errorf("warm-up macro run produced no views")
		}
		setups = append(setups, time.Since(t0))
	}
	parts, reports := faultParts, simReports
	if o.small {
		parts, reports = faultParts[:2], 0
	}

	cpu0, start := cpuTime(), time.Now()
	report, cohortT, denseT := &sample{}, &sample{}, &sample{}
	partT := make([]sample, len(parts))
	partOut := make([]string, len(parts))
	var reportOut string
	var cohort, dense *core.MacroResult
	var cohortCPU time.Duration
	for round := 0; round < simRounds; round++ {
		if round < reports {
			t0 := time.Now()
			out := eval.FaultReport(o.seed)
			report.addDur(time.Since(t0), time.Millisecond)
			if round == 0 {
				reportOut = out
				res.attempted++
			} else if out != reportOut || out == "" {
				res.failed++
				res.errorf("fault replay of seed %d is not byte-identical across two runs (%d vs %d bytes)", o.seed, len(reportOut), len(out))
			}
		}
		for k, p := range parts {
			t0 := time.Now()
			out := p.run(o.seed)
			partT[k].addDur(time.Since(t0), time.Millisecond)
			if round == 0 {
				partOut[k] = out
				res.attempted++
			} else if out != partOut[k] {
				res.failed++
				res.errorf("%s experiment of seed %d does not replay byte for byte", p.name, o.seed)
			}
		}

		c0 := cpuTime()
		t0 := time.Now()
		cohort = core.RunMacro(cohortConfig(hours))
		cohortT.addDur(time.Since(t0), time.Millisecond)
		cohortCPU += cpuTime() - c0

		for k := 0; k < simDensePerRound; k++ {
			t0 = time.Now()
			dense = core.RunMacro(denseDayConfig())
			denseT.addDur(time.Since(t0), time.Millisecond)
		}
	}
	cpu := cpuTime() - cpu0
	elapsed := time.Since(start)

	res.attempted += 2
	switch {
	case cohort.Views <= 0 || cohort.CohortQoE == nil:
		res.failed++
		res.errorf("cohort macro run produced no views")
	case hours == simFullHours && cohort.Views != simPins.cohortViews:
		res.failed++
		res.errorf("cohort macro run: %d views, pinned %d", cohort.Views, simPins.cohortViews)
	}
	if dense.Views != simPins.denseViews {
		res.failed++
		res.errorf("dense-mesh day: %d views, pinned %d", dense.Views, simPins.denseViews)
	}

	// Fault replay: every experiment at its fastest run, summed; the tail
	// figure is the same sum over their slowest runs.
	var replay, replaySlow float64
	line := "  wall time, ms, every run:"
	for k := range parts {
		replay += partT[k].min()
		replaySlow += partT[k].pct(1)
		line += fmt.Sprintf(" %s %.4g,", parts[k].name, partT[k].v)
	}
	viewsPerS := float64(cohort.Views) / (cohortT.min() / 1e3)
	res.text = append(res.text, line+fmt.Sprintf(" whole report %.4g, cohort %.4g, dense-mesh day %.4g\n", report.v, cohortT.v, denseT.v))
	res.endToEnd(headline{
		setups: setups, throughput: viewsPerS, ops: int64(cohort.Views) * simRounds,
		latP50: replay, latTail: replaySlow, latN: simRounds * len(parts),
		control: denseT.min(), controlN: denseT.n(),
		cpu: cohortCPU,
	})
	res.m.put("fault_replay_s", "s", report.min()/1e3, report.n())
	res.m.put("macro_views_per_s", "1/s", viewsPerS, cohort.Views)
	res.m.put("eval.fault_report_s", "s", report.min()/1e3, report.n())
	res.m.put("core.macro_cohort_s", "s", cohortT.min()/1e3, cohortT.n())
	res.m.put("core.macro_dense_day_s", "s", denseT.min()/1e3, denseT.n())
	res.m.put("bench.cpu_cores_busy", "cores", cpu.Seconds()/elapsed.Seconds(), 0)
	return res, nil
}
