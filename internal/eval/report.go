package eval

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// This file renders livenet-bench's reports. Apart from the lines that
// print wall-clock time, each report is a deterministic function of its
// options; the root package's TestGoldenReports pins -quick and -chaos.

// WriteEvaluation writes the evaluation report for o: Table 1, the cohort
// summary of a cohort run, every figure, the multi-seed table when
// seeds > 1, the ablations when asked for, the fault-tolerance
// experiments, and the scheduler's accounting.
func (s *Session) WriteEvaluation(out io.Writer, o Options, seeds int, ablations bool) {
	fmt.Fprintf(out, "LiveNet evaluation — %s, %d sites, peak %.1f views/s, seed %d\n",
		horizonLabel(o), o.Sites, o.PeakViewsPerSec, o.Seed)
	start := time.Now()
	r := s.Run(o)
	fmt.Fprintf(out, "simulated %d views per system in %v\n\n", r.LN.Views, time.Since(start).Round(time.Millisecond))

	sections := []string{
		Table1(r),
	}
	if cs := CohortSummary(r); cs != "" {
		sections = append(sections, cs)
	}
	sections = append(sections,
		Fig2(r),
		Fig8a(r),
		Fig8b(r),
		Fig8c(r),
		Fig9(r),
		Fig10a(r),
		Fig10b(r),
		Fig10c(r),
		Table2(r),
		Fig11(r),
		Fig12(r),
		Fig13(r),
	)
	// Figure 14 / Table 3 need the festival window; the full run includes
	// it, a short run may not reach day 13.
	if o.Days >= 13 && o.Double12 {
		sections = append(sections, Fig14(r), Table3(r))
	} else {
		sections = append(sections, "Figure 14 / Table 3 skipped: run needs >= 13 days with -quick off\n")
	}
	for _, sec := range sections {
		fmt.Fprintln(out, sec)
	}

	if seeds > 1 {
		fmt.Fprintln(out, strings.Repeat("-", 60))
		fmt.Fprintln(out, SeedTable(s.RunSeeds(o, seeds)))
	}

	if ablations {
		fmt.Fprintln(out, strings.Repeat("-", 60))
		fmt.Fprintln(out, s.FastSlowTable(o.Seed, []float64{0, 0.005, 0.01, 0.02}))
		fmt.Fprintln(out, AblationLinkWeights(o.Seed))
		ablOpt := o
		ablOpt.Days = min(o.Days, 2)
		ablOpt.Double12 = false
		fmt.Fprintln(out, s.MacroAblations(ablOpt))
	}

	fmt.Fprintln(out, strings.Repeat("-", 60))
	fmt.Fprintln(out, FaultReport(o.Seed))

	rep := s.Report()
	fmt.Fprintf(out, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if rep.Jobs > 0 {
		fmt.Fprintf(out, "scheduler: %d runs, serial-equivalent %v, batch wall %v, speedup %.2fx",
			rep.Jobs, rep.Serial.Round(time.Millisecond), rep.Wall.Round(time.Millisecond), rep.Speedup())
		if hits := s.MemoHits(); hits > 0 {
			fmt.Fprintf(out, ", %d runs served from memo", hits)
		}
		fmt.Fprintln(out)
	}
}

// WriteMacroRun writes the paired macro simulation alone: Table 1 plus
// the cohort summary of a cohort run.
func (s *Session) WriteMacroRun(out io.Writer, o Options) {
	fmt.Fprintf(out, "LiveNet macro run — %s, %d sites, seed %d\n", horizonLabel(o), o.Sites, o.Seed)
	start := time.Now()
	r := s.Run(o)
	fmt.Fprintf(out, "simulated %d views per system in %v\n\n", r.LN.Views, time.Since(start).Round(time.Millisecond))
	fmt.Fprintln(out, Table1(r))
	if cs := CohortSummary(r); cs != "" {
		fmt.Fprintln(out, cs)
	}
	fmt.Fprintf(out, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// WriteFaultTolerance writes the fault-tolerance experiments for seed.
func WriteFaultTolerance(out io.Writer, seed int64) {
	fmt.Fprintf(out, "LiveNet fault-tolerance evaluation — seed %d\n\n", seed)
	start := time.Now()
	fmt.Fprintln(out, FaultReport(seed))
	fmt.Fprintf(out, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// WriteTelemetry writes the observability report for seed.
func WriteTelemetry(out io.Writer, seed int64) {
	fmt.Fprintf(out, "LiveNet observability report — seed %d (see OBSERVABILITY.md)\n\n", seed)
	start := time.Now()
	fmt.Fprintln(out, TelemetryReport(seed))
	fmt.Fprintf(out, "total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// horizonLabel describes the simulated horizon and sizing of a run.
func horizonLabel(o Options) string {
	h := fmt.Sprintf("%d days", o.Days)
	if o.Hours > 0 {
		h = fmt.Sprintf("%d hours", o.Hours)
	}
	if o.Viewers > 0 {
		h += fmt.Sprintf(", %d peak viewers (cohort-aggregated)", o.Viewers)
	}
	return h
}
