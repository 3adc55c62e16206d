package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// report is one workload run as printed and as handed to the driver.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Late      int64    `json:"late,omitempty"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   []metric `json:"metrics"`
	WallS     float64  `json:"wall_s"`

	text  []string
	spans []span
	m     metricSet
}

// runOne runs one workload. A traced run measures twice — a third of the
// window untraced for the end-to-end figures, the rest with the wrappers
// installed — so the tracing overhead is known from the same process.
func runOne(w workloadSpec, o runOpts) (*report, error) {
	start := time.Now()
	rep := &report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace}
	// setup_s is the median of setupRuns set-ups; a traced run does not
	// report it, and the smoke tests are after speed.
	o.setups = setupRuns
	if o.trace || o.small {
		o.setups = 1
	}
	plain := o
	plain.trace = false
	if o.trace && w.sockets {
		plain.seconds = o.seconds / 3
	}
	res, err := w.run(plain)
	if err != nil {
		return nil, err
	}
	rep.absorb(res)
	if o.trace && !w.sockets {
		rep.m.put("trace_overhead_ratio", "ratio", 1, 0) // no seam to wrap: the traced run is the untraced one
	}
	if o.trace && w.sockets {
		traced := o
		traced.seconds = o.seconds - plain.seconds
		tres, err := w.run(traced)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		// The traced run contributes its per-layer metrics; every figure
		// the untraced run also produced keeps the untraced value.
		ratio := 1.0
		if u, ok := res.m.get(mThroughput); ok && u.Value > 0 {
			if t, ok := tres.m.get(mThroughput); ok {
				ratio = t.Value / u.Value
			}
		}
		for _, m := range tres.m.list() {
			if _, have := rep.m.get(m.Name); !have {
				rep.m.put(m.Name, m.Unit, m.Value, m.N)
			}
		}
		rep.m.put("trace_overhead_ratio", "ratio", ratio, 0)
		rep.Errors = append(rep.Errors, tres.errs...)
		rep.text = append(rep.text, tres.text...)
		rep.spans = tres.spans
	}
	if o.trace {
		runtime.GC() // the micro pass should not pay for the workload's garbage
		for _, lm := range runLayers(func(l layerBench) bool { return l.on(w.name) }).list() {
			rep.m.put(lm.Name, lm.Unit, lm.Value, lm.N)
		}
	}
	if !o.small && float64(rep.Failed) > failBound*float64(rep.Attempted) {
		rep.Errors = append(rep.Errors, fmt.Sprintf("%d of %d operations failed: fail_ratio is over its bound of %v", rep.Failed, rep.Attempted, failBound))
	}
	if !o.small && float64(rep.Failed+rep.Late) > lateBound*float64(rep.Attempted) {
		rep.Errors = append(rep.Errors, fmt.Sprintf("%d of %d operations failed or were late: fail_ratio is over %v", rep.Failed+rep.Late, rep.Attempted, lateBound))
	}
	rep.Correct = len(rep.Errors) == 0
	rep.Metrics = rep.m.list()
	rep.WallS = time.Since(start).Seconds()
	return rep, nil
}

func (rep *report) absorb(res *runResult) {
	rep.Attempted, rep.Failed, rep.Late = res.attempted, res.failed, res.late
	rep.Errors = append(rep.Errors, res.errs...)
	rep.text = append(rep.text, res.text...)
	rep.m.merge(&res.m)
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-7s%s\n", m.Name, m.Value, m.Unit, n)
	}
}

func (rep *report) print(w io.Writer, why string) {
	fmt.Fprintf(w, "\n== %s (seed %d, %.3gs window, traced=%v, %.1fs wall) ==\n   %s\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.WallS, why)
	fmt.Fprintf(w, "  attempted=%d failed=%d late=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Late, rep.Correct)
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  INVALID: %s\n", e)
	}
	printMetrics(w, rep.Metrics)
	for _, t := range rep.text {
		fmt.Fprint(w, t)
	}
}

// contractValue is one metric in the driver's result line.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the driver's result object.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// contract selects exactly the metrics BENCHMARK.json lists for this kind
// of run: the end-to-end ones untraced, the per-layer ones traced. A
// per-layer metric this workload does not exercise reads 0.
func (rep *report) contract(cat *catalog, traced bool) contractLine {
	c := contractLine{Correct: rep.Correct, Attempted: max(rep.Attempted, 1), Failed: rep.Failed, Metrics: map[string]contractValue{}}
	list := cat.EndToEnd
	if traced {
		list = cat.PerLayer
	}
	for _, d := range list {
		v := contractValue{Unit: d.Unit}
		if m, ok := rep.m.get(d.Name); ok {
			v.Value = m.Value
		}
		c.Metrics[d.Name] = v
	}
	return c
}
