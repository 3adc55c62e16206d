package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported number. N is the sample count behind it (0
// when the value is a plain count or ratio with no sample set).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
}

// metricSet keeps metrics in insertion order and by name.
type metricSet struct {
	order []string
	by    map[string]metric
}

func (s *metricSet) put(name, unit string, v float64, n int) {
	if s.by == nil {
		s.by = make(map[string]metric)
	}
	if _, ok := s.by[name]; !ok {
		s.order = append(s.order, name)
	}
	s.by[name] = metric{Name: name, Unit: unit, Value: v, N: n}
}

func (s *metricSet) get(name string) (metric, bool) {
	m, ok := s.by[name]
	return m, ok
}

func (s *metricSet) list() []metric {
	out := make([]metric, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.by[n])
	}
	return out
}

// merge copies every metric of o into s (o wins on a name clash).
func (s *metricSet) merge(o *metricSet) {
	for _, m := range o.list() {
		s.put(m.Name, m.Unit, m.Value, m.N)
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is a set of timings (or any scalar observations).
type sample struct {
	v      []float64
	sorted bool
}

func (s *sample) add(x float64) {
	s.v = append(s.v, x)
	s.sorted = false
}

func (s *sample) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *sample) n() int { return len(s.v) }

func (s *sample) sort() {
	if !s.sorted {
		sort.Float64s(s.v)
		s.sorted = true
	}
}

// pct returns the nearest-rank percentile p in (0,1]; 0 with no samples.
func (s *sample) pct(p float64) float64 {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	i := int(math.Ceil(p*float64(len(s.v))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.v) {
		i = len(s.v) - 1
	}
	return s.v[i]
}

// min is the smallest observation; 0 with no samples.
func (s *sample) min() float64 {
	if len(s.v) == 0 {
		return 0
	}
	s.sort()
	return s.v[0]
}

func (s *sample) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.v {
		sum += x
	}
	return sum / float64(len(s.v))
}

// tailLadder are the tail percentiles a timing may be reported at.
var tailLadder = []struct {
	p     float64
	label string
}{
	{0.90, "p90"}, {0.95, "p95"}, {0.99, "p99"}, {0.999, "p999"}, {0.9999, "p9999"},
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supported reports whether percentile p has at least minBeyond samples
// beyond it in a set of n.
func supported(n int, p float64) bool {
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // nearest-rank position of p
	return n-rank >= minBeyond
}

// tailFor returns the highest ladder percentile with at least minBeyond
// samples beyond it in a set of n, or ok=false when even p90 has fewer
// (n < 100): the timing is then reported by its median alone.
func tailFor(n int) (p float64, label string, ok bool) {
	for _, t := range tailLadder {
		if supported(n, t.p) {
			p, label, ok = t.p, t.label, true
		}
	}
	return
}

// describe renders a timing sample as "p50=… <tail>=… n=…".
func (s *sample) describe(unit string) string {
	if s.n() == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("p50=%.4g%s", s.pct(0.5), unit)
	if p, label, ok := tailFor(s.n()); ok {
		out += fmt.Sprintf(" %s=%.4g%s", label, s.pct(p), unit)
	}
	return out + fmt.Sprintf(" n=%d", s.n())
}

// quartiles returns Q1, median, Q3 by the exclusive method Python's
// statistics.quantiles(v, n=4) uses, so -repeat reproduces the driver's
// spread figure.
func quartiles(v []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return x[j-1] + frac*(x[j]-x[j-1])
	}
	return at(1), at(2), at(3)
}
