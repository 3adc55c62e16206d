package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// baselineRun is one run as kept in BASELINE.json.
type baselineRun struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// baselineFile is what -repeat -out writes.
type baselineFile struct {
	Commit     string        `json:"commit"`
	GoVersion  string        `json:"go_version"`
	CPUs       int           `json:"cpus"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Seconds    float64       `json:"seconds"`
	Note       string        `json:"note"`
	Runs       []baselineRun `json:"runs"`
}

// runRepeat runs every named workload k times per seed, each run in a
// fresh process exactly as the driver starts it, prints the spread of
// every end-to-end metric and checks it against the metric's bound from
// BENCHMARK.json.
func runRepeat(cat *catalog, names []string, seeds []int64, k int, seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	printHeader(seeds[0])
	file := baselineFile{Commit: commit(), GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seconds: seconds,
		Note: "host loopback, one process per run; each (workload, seed) block is an independent set of runs of this commit"}
	ok := true
	for _, name := range names {
		perSeed := map[int64]map[string][]float64{}
		all := map[string][]float64{}
		for _, seed := range seeds {
			perSeed[seed] = map[string][]float64{}
			for i := 0; i < k; i++ {
				cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
				var stdout bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d run %d: %v\n", name, seed, i, err)
					ok = false
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var line contractLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d run %d: no result line: %v\n", name, seed, i, err)
					ok = false
					continue
				}
				run := baselineRun{Workload: name, Seed: seed, Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed, Metrics: map[string]float64{}}
				for m, v := range line.Metrics {
					run.Metrics[m] = v.Value
					perSeed[seed][m] = append(perSeed[seed][m], v.Value)
					all[m] = append(all[m], v.Value)
				}
				file.Runs = append(file.Runs, run)
				ok = ok && line.Correct
				fmt.Printf("  %s seed %d run %d: correct=%v failed=%d/%d\n", name, seed, i, line.Correct, line.Failed, line.Attempted)
			}
		}
		fmt.Printf("\n== %s: %d runs x %d seeds ==\n", name, k, len(seeds))
		fmt.Printf("  %-18s %12s %12s %12s %9s %9s %7s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "range/med", "bound", "verdict")
		for _, d := range cat.EndToEnd {
			v := all[d.Name]
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			iqr, rng := (q3-q1)/q2, (hi-lo)/q2
			verdict := "ok"
			if d.Name != mSetup && iqr > d.Bound {
				verdict, ok = "SPREAD OVER BOUND", false
			} else if d.Name != mSetup && iqr > d.Bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			// Independent sets of this same commit must agree: the seed
			// blocks' medians may differ by less than the bound.
			if len(seeds) > 1 && k >= 3 {
				mlo, mhi := 0.0, 0.0
				for i, seed := range seeds {
					_, med, _ := quartiles(perSeed[seed][d.Name])
					if i == 0 {
						mlo, mhi = med, med
					}
					mlo, mhi = min(mlo, med), max(mhi, med)
				}
				if mlo > 0 && (mhi-mlo)/mlo > d.Bound {
					verdict, ok = fmt.Sprintf("SETS DISAGREE (medians %.4g..%.4g)", mlo, mhi), false
				}
			}
			fmt.Printf("  %-18s %12.5g %12.5g %12.5g %8.1f%% %8.1f%% %6.0f%%  %s\n", d.Name, q1, q2, q3, 100*iqr, 100*rng, 100*d.Bound, verdict)
		}
	}
	if out != "" {
		enc, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(enc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}
