// livenet-bench runs the full evaluation harness: every table and figure
// of the paper's §6 plus the DESIGN.md ablations, printed in the same
// row/series structure the paper reports. Use -quick for a scaled-down
// run; the default reproduces the 20-day, 64-site configuration.
//
// Independent simulation runs (the two systems, ablation variants, loss
// sweep points, and extra seeds) fan out across CPU cores; results are
// bit-identical to -parallel=false because every run owns a private
// event loop and seeded RNG.
//
//	livenet-bench                 # full 20-day evaluation (minutes)
//	livenet-bench -quick          # 2-day smoke run (seconds)
//	livenet-bench -seeds 5        # 5 workload seeds, mean ± 95% CI table
//	livenet-bench -parallel=false # serial reference schedule
//	livenet-bench -chaos          # fault-tolerance experiments only
//	livenet-bench -telemetry      # observability report (waterfalls + GlobalView)
//	livenet-bench -out FILE       # additionally write the report to FILE
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"livenet/internal/eval"
	"livenet/internal/perfbench"
	"livenet/internal/runner"
)

func main() {
	quick := flag.Bool("quick", false, "run the scaled-down configuration")
	days := flag.Int("days", 0, "override the number of simulated days")
	sites := flag.Int("sites", 0, "override the number of CDN sites")
	maxPeers := flag.Int("peers", 0, "sparse overlay: links per site to its nearest peers (0 = full mesh)")
	regions := flag.Int("regions", 0, "federate the Streaming Brain into per-region shards (0 = monolith)")
	seed := flag.Int64("seed", 42, "simulation seed")
	seeds := flag.Int("seeds", 1, "workload seeds per system (N>1 adds a mean ± 95% CI table)")
	parallel := flag.Bool("parallel", true, "fan independent runs out across CPU cores")
	workers := flag.Int("workers", 0, "worker cap for -parallel (0 = GOMAXPROCS)")
	outFile := flag.String("out", "", "also write the report to this file")
	skipAblations := flag.Bool("no-ablations", false, "skip the ablation studies")
	chaosOnly := flag.Bool("chaos", false, "run only the fault-tolerance experiments")
	benchJSON := flag.String("bench-json", "", "run the perfbench suite and write a JSON snapshot to this file")
	telemetryOnly := flag.Bool("telemetry", false, "run only the observability report (waterfalls + GlobalView)")
	viewers := flag.Int("viewers", 0, "cohort-aggregated run sized to this many peak concurrent viewers (0 = per-viewer engine)")
	hours := flag.Int("hours", 0, "simulate whole hours instead of days (0 = use days)")
	tracer := flag.Float64("tracer", 0, "exact-tracer sampling probability for -viewers runs (0 = default 0.002)")
	macroOnly := flag.Bool("macro-only", false, "run only the paired macro simulation: Table 1 plus the cohort summary")
	benchCheck := flag.String("bench-check", "", "re-run the hot-path benchmarks and fail on alloc regressions vs this committed -bench-json snapshot")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "livenet-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "livenet-bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "livenet-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "livenet-bench:", err)
			}
		}()
	}

	if *benchJSON != "" {
		if err := runBenchJSON(*benchJSON); err != nil {
			fmt.Fprintln(os.Stderr, "livenet-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *benchCheck != "" {
		if err := runBenchCheck(*benchCheck); err != nil {
			fmt.Fprintln(os.Stderr, "livenet-bench:", err)
			os.Exit(1)
		}
		return
	}

	o := eval.Full()
	if *quick {
		o = eval.Quick()
	}
	if *days > 0 {
		o.Days = *days
	}
	if *sites > 0 {
		o.Sites = *sites
	}
	if *maxPeers > 0 {
		o.MaxPeers = *maxPeers
	}
	if *regions > 0 {
		o.Regions = *regions
	}
	if *hours > 0 {
		o.Hours = *hours
	}
	if *viewers > 0 {
		o.Viewers = *viewers
		o.TracerSample = *tracer
		if o.Hours == 0 && *days == 0 {
			// A sized run defaults to a 16-hour horizon: one diurnal cycle
			// through the evening peak, not the full 20-day trace.
			o.Hours = 16
		}
	}
	o.Seed = *seed

	opts := runner.Parallel()
	if !*parallel {
		opts = runner.Serial()
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	session := eval.NewSession(opts)

	var out io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "livenet-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	switch {
	case *chaosOnly:
		eval.WriteFaultTolerance(out, o.Seed)
	case *telemetryOnly:
		eval.WriteTelemetry(out, o.Seed)
	case *macroOnly:
		session.WriteMacroRun(out, o)
	default:
		session.WriteEvaluation(out, o, *seeds, !*skipAblations)
	}
}

// benchRecord is one perfbench result row in the JSON snapshot.
type benchRecord struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// PPS is the benchmark's self-reported packets-per-second metric
	// (the data-plane throughput suite); 0 for benchmarks without one.
	PPS float64 `json:"pps,omitempty"`
	// Extra carries every other custom metric the benchmark reported
	// (e.g. the federated-Brain suite's shards / max_shard_reports /
	// links fan-in shape).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// benchSnapshot is the JSON document `-bench-json` writes: the whole
// perfbench suite on this machine, for cross-PR comparison.
type benchSnapshot struct {
	// Note says which of the snapshot's figures compare across snapshots.
	Note      string        `json:"note"`
	Date      string        `json:"date"`
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	CPUs      int           `json:"cpus"`
	Results   []benchRecord `json:"results"`
}

// runBenchJSON runs every registered perfbench benchmark via
// testing.Benchmark and writes the snapshot to path.
func runBenchJSON(path string) error {
	snap := benchSnapshot{
		Note: "ns_per_op compares only with rows measured on the same machine on the same day; " +
			"allocs_per_op is deterministic and is what -bench-check gates",
		Date:      time.Now().Format(time.DateOnly),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	for _, s := range perfbench.Specs() {
		fmt.Fprintf(os.Stderr, "bench %-22s", s.Name)
		r := testing.Benchmark(s.Func)
		rec := benchRecord{
			Name:        s.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			PPS:         r.Extra["pps"],
		}
		for k, v := range r.Extra {
			if k == "pps" {
				continue
			}
			if rec.Extra == nil {
				rec.Extra = map[string]float64{}
			}
			rec.Extra[k] = v
		}
		fmt.Fprintf(os.Stderr, " %14.1f ns/op %10d allocs/op  (n=%d)\n", rec.NsPerOp, rec.AllocsPerOp, r.N)
		snap.Results = append(snap.Results, rec)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hotPathBenchmarks are the allocation-diet benchmarks the CI regression
// guard re-runs: paths where a single new alloc per op compounds into
// fleet-scale throughput loss. Timing is machine-dependent so ns/op is
// not gated, but allocs/op is deterministic at steady state.
var hotPathBenchmarks = map[string]bool{
	"BrainLookup":           true,
	"GraphNeighborWeights":  true,
	"YenKSPFullMesh":        true,
	"LoopSchedule":          true,
	"NetemSend":             true,
	"NodeForwardFanout10":   true,
	"NodeForwardFanout100":  true,
	"NodeForwardFanout1000": true,
	"UDPLoopbackEcho":       true,
	"UDPLoopbackBatchRelay": true,
}

// runBenchCheck re-runs the hot-path benchmarks and compares allocs/op
// against the committed snapshot: a benchmark may not exceed its
// recorded allocs/op by more than 10% (and a zero-alloc benchmark must
// stay at zero). Missing snapshot entries fail, so the snapshot cannot
// silently fall behind the suite.
func runBenchCheck(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap benchSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	baseline := make(map[string]benchRecord, len(snap.Results))
	for _, r := range snap.Results {
		baseline[r.Name] = r
	}
	var failures []string
	for _, s := range perfbench.Specs() {
		if !hotPathBenchmarks[s.Name] {
			continue
		}
		base, ok := baseline[s.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from %s (regenerate with -bench-json)", s.Name, path))
			continue
		}
		fmt.Fprintf(os.Stderr, "check %-22s", s.Name)
		r := testing.Benchmark(s.Func)
		got := r.AllocsPerOp()
		allowed := base.AllocsPerOp + base.AllocsPerOp/10
		verdict := "ok"
		if got > allowed {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op, snapshot %d (allowed <= %d)",
				s.Name, got, base.AllocsPerOp, allowed))
		}
		fmt.Fprintf(os.Stderr, " %6d allocs/op (snapshot %6d)  %s\n", got, base.AllocsPerOp, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("hot-path alloc regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
