package livenet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"livenet/internal/eval"
	"livenet/internal/runner"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// timingLine matches the report lines that carry wall-clock figures, and
// the rolling-restart heading too, whose "drain 3s" matches "in [0-9]".
var timingLine = regexp.MustCompile(`wall time|scheduler|in [0-9]`)

// stripTiming drops the timing lines of a report.
func stripTiming(report string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(report, "\n") {
		if !timingLine.MatchString(line) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestGoldenReports regenerates `livenet-bench -quick -no-ablations` and
// `livenet-bench -chaos` in-process and compares them, timing lines
// aside, with the committed testdata/*.golden. A change that must not
// alter behaviour leaves both files as they are; one that does refreshes
// them with `go test -run TestGoldenReports . -update` and says why.
func TestGoldenReports(t *testing.T) {
	if raceEnabled {
		t.Skip("about 16x slower under -race; internal/eval races the same scenarios, and `make golden` runs this gate")
	}
	reports := []struct {
		file  string
		write func(*bytes.Buffer)
	}{
		{"quick.golden", func(b *bytes.Buffer) {
			eval.NewSession(runner.Parallel()).WriteEvaluation(b, eval.Quick(), 1, false)
		}},
		{"chaos.golden", func(b *bytes.Buffer) { eval.WriteFaultTolerance(b, eval.Quick().Seed) }},
	}
	for _, r := range reports {
		var b bytes.Buffer
		r.write(&b)
		got := stripTiming(b.String())
		path := filepath.Join("testdata", r.file)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (create it with -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from this run:\n%s", path, firstDiff(string(want), got))
		}
	}
}

// firstDiff renders the first differing line of two reports.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return "line " + strconv.Itoa(i+1) + ":\n  golden: " + wl + "\n  run:    " + gl
		}
	}
	return "(line endings differ)"
}
