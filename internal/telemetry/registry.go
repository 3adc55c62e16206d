// Package telemetry is the repo's observability layer: a unified metrics
// registry (counters, gauges, log-bucket histograms) shared by the overlay
// node, the clients, the Streaming Brain, and the network emulator, plus a
// sampled per-packet tracer that renders hop-by-hop latency waterfalls.
//
// Two properties shape every API in this package:
//
//   - Zero cost when disabled. All instrument constructors are nil-receiver
//     safe: calling Counter/Gauge/Histogram on a nil *Registry returns a
//     working unregistered instrument, so instrumented code carries no
//     branches and no nil checks on the hot path. Instruments themselves are
//     single atomic words (the histogram a fixed array of them) — no maps,
//     no allocation, no locks per operation.
//
//   - Determinism. Snapshots iterate in sorted name order, the tracer
//     samples from a dedicated seeded RNG stream, and rendering is a pure
//     function of the recorded events — so enabling telemetry never
//     perturbs a simulation and replays stay byte-identical.
//
// See OBSERVABILITY.md for the metric catalogue and the journey format.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"livenet/internal/stats"
)

// Counter is a monotonically increasing uint64. The zero value is a valid,
// unregistered counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a last-write-wins float64. The zero value is a valid,
// unregistered gauge.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the last stored value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed bucket count of every Histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i, except
// bucket 0 (v <= 0) and the last bucket (everything larger). Power-of-two
// log-scale buckets keep Observe a shift-free bits.Len64 + one atomic add.
const histBuckets = 40

// Histogram is a fixed log-scale (power-of-two bucket) histogram of int64
// observations. The zero value is a valid, unregistered histogram.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v)) // 1..64
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// BucketUpper returns the inclusive upper bound of bucket i
// (math.MaxInt64 for the overflow bucket).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return 1<<uint(i) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the same value at the cost of one
// (a fan-out's packets share their queueing time).
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * int64(n))
	h.buckets[bucketIndex(v)].Add(n)
}

// snapshot captures the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets [histBuckets]uint64
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (0 < q <= 1). The answer is exact to within one power of two.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			return BucketUpper(i)
		}
	}
	return BucketUpper(histBuckets - 1)
}

// Mean returns the exact arithmetic mean of all observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// merge adds o's observations into s.
func (s *HistogramSnapshot) merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// diff subtracts prev (an earlier snapshot of the same histogram) from s.
func (s *HistogramSnapshot) diff(prev HistogramSnapshot) {
	s.Count -= prev.Count
	s.Sum -= prev.Sum
	for i := range s.Buckets {
		s.Buckets[i] -= prev.Buckets[i]
	}
}

// Registry names and owns a set of instruments. A nil *Registry is the
// "telemetry disabled" state: every accessor still returns a working
// instrument, it just isn't registered anywhere and costs nothing to keep.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// On a nil registry it returns a fresh unregistered counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// On a nil registry it returns a fresh unregistered gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// On a nil registry it returns a fresh unregistered histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return new(Histogram)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Names returns every registered instrument name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures the current value of every registered instrument.
// A nil registry snapshots to the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Histograms[n] = h.snapshot()
		}
	}
	return s
}

// Snapshot is a point-in-time copy of a registry: plain maps, safe to keep,
// merge across nodes, or diff against an earlier snapshot of the same
// registry. All iteration in String/Names is in sorted name order.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Empty reports whether the snapshot holds no instruments at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Names returns every instrument name in the snapshot, sorted.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Diff returns s minus prev: counter and histogram deltas since prev was
// taken, gauges at their current (s) value. prev must be an earlier
// snapshot of the same registry.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	d := Snapshot{}
	if len(s.Counters) > 0 {
		d.Counters = make(map[string]uint64, len(s.Counters))
		for n, v := range s.Counters {
			d.Counters[n] = v - prev.Counters[n]
		}
	}
	if len(s.Gauges) > 0 {
		d.Gauges = make(map[string]float64, len(s.Gauges))
		for n, v := range s.Gauges {
			d.Gauges[n] = v
		}
	}
	if len(s.Histograms) > 0 {
		d.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for n, h := range s.Histograms {
			h.diff(prev.Histograms[n])
			d.Histograms[n] = h
		}
	}
	return d
}

// Merge folds o into s, summing counters and histograms and taking the max
// of gauges (fleet aggregation: "worst reported value"). Instruments only
// present in o are added to s.
func (s *Snapshot) Merge(o Snapshot) {
	if len(o.Counters) > 0 && s.Counters == nil {
		s.Counters = make(map[string]uint64, len(o.Counters))
	}
	for n, v := range o.Counters {
		s.Counters[n] += v
	}
	if len(o.Gauges) > 0 && s.Gauges == nil {
		s.Gauges = make(map[string]float64, len(o.Gauges))
	}
	for n, v := range o.Gauges {
		if cur, ok := s.Gauges[n]; !ok || v > cur {
			s.Gauges[n] = v
		}
	}
	if len(o.Histograms) > 0 && s.Histograms == nil {
		s.Histograms = make(map[string]HistogramSnapshot, len(o.Histograms))
	}
	for n, h := range o.Histograms {
		cur := s.Histograms[n]
		cur.merge(h)
		s.Histograms[n] = cur
	}
}

// String renders the snapshot as a sorted three-column text table.
func (s Snapshot) String() string {
	t := &stats.Table{Header: []string{"metric", "type", "value"}}
	for _, n := range s.Names() {
		switch {
		case s.Counters != nil && contains(s.Counters, n):
			t.AddRow(n, "counter", fmt.Sprintf("%d", s.Counters[n]))
		case s.Gauges != nil && containsF(s.Gauges, n):
			t.AddRow(n, "gauge", fmt.Sprintf("%.3f", s.Gauges[n]))
		default:
			h := s.Histograms[n]
			t.AddRow(n, "histogram", fmt.Sprintf("n=%d mean=%.1f p50<=%d p99<=%d",
				h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99)))
		}
	}
	return t.String()
}

func contains(m map[string]uint64, k string) bool  { _, ok := m[k]; return ok }
func containsF(m map[string]float64, k string) bool { _, ok := m[k]; return ok }
