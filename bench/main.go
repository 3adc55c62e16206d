// Command bench is the repository's benchmark: five named workloads over
// real loopback sockets, the Streaming Brain and the simulator, with a
// per-layer traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	cat, err := loadCatalog()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// The program's own flag set: the micro pass registers the testing
	// package's flags on the default one.
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload name, or all")
	seedList := fs.String("seed", "1", "workload seed (a comma-separated list with -repeat)")
	seconds := fs.Float64("seconds", float64(cat.RunSeconds), "measured window per run, seconds")
	trace := fs.Int("trace", 0, "1: traced run, reporting the per-layer metrics")
	layers := fs.Bool("layers", false, "run the whole micro pass (every per-layer timing taken by direct calls)")
	repeat := fs.Int("repeat", 0, "run each workload this many times per seed in fresh processes and check the spread against BENCHMARK.json")
	out := fs.String("out", "", "with -repeat: write every run's metrics to this JSON file")
	spans := fs.String("spans", "", "with -trace 1: write the recorded spans to this file as JSON lines")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}

	seeds, err := parseSeeds(*seedList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, ok := findWorkload(n); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			return 2
		}
	}
	if *repeat > 0 {
		return runRepeat(cat, names, seeds, *repeat, *seconds, *out)
	}

	printHeader(seeds[0])
	ok := true
	var last *report
	for _, n := range names {
		w, _ := findWorkload(n)
		rep, err := runOne(w, runOpts{seed: seeds[0], seconds: *seconds, trace: *trace == 1})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		rep.print(os.Stdout, cat.why(n))
		if *spans != "" && len(rep.spans) > 0 {
			if err := writeSpans(*spans, rep.spans); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		ok = ok && rep.Correct
		last = rep
	}
	if *layers {
		m := runLayers(nil)
		fmt.Println("\n== micro pass (direct calls into each layer) ==")
		printMetrics(os.Stdout, m.list())
	}
	if len(names) == 1 {
		// The driver's contract: the last line is one JSON object.
		line, err := json.Marshal(last.contract(cat, *trace == 1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seed %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout without .git records none).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printHeader(seed int64) {
	fmt.Printf("livenet bench: cpus=%d GOMAXPROCS=%d %s %s/%s commit=%s seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit(), seed)
	fmt.Println("traffic crosses the host loopback interface, never a real link; one process holds Brain, nodes, clients and generator")
}
