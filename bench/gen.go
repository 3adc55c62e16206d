package main

import (
	"sort"
	"time"

	"livenet/internal/sim"
)

// poissonSchedule pre-draws the due offsets of an open-loop arrival
// process at rate per second over dur: exponential gaps, so the offsets
// depend on the seed alone and never on how the system responds.
func poissonSchedule(rng *sim.Rand, rate float64, dur time.Duration) []time.Duration {
	if rate <= 0 || dur <= 0 {
		return nil
	}
	out := make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += rng.Exp(1 / rate)
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// poissonArrivals is poissonSchedule conditioned on its count: exactly
// round(rate·dur) arrivals, placed as a Poisson process places them once
// their number is known (independent uniform times, sorted). A workload
// whose arrival count is small uses it so that the count itself is not a
// source of run-to-run spread.
func poissonArrivals(rng *sim.Rand, rate float64, dur time.Duration) []time.Duration {
	n := int(rate*dur.Seconds() + 0.5)
	if n <= 0 || dur <= 0 {
		return nil
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// openLoop issues fire(i) for every due offset from one goroutine. It
// sleeps until each due time (no spinning); when it wakes late or a fire
// call overruns, the following operations go out immediately and their
// latency — taken by the caller from start+due[i] — carries the wait.
// It returns the largest lateness between a due time and its fire call.
//
// The Go runtime wakes a sleeper up to a millisecond late (its poller
// sleeps in whole milliseconds). That lateness is part of every latency
// taken from the due time; the traced run shows it as its own row.
func openLoop(start time.Time, due []time.Duration, fire func(i int, due time.Time)) (maxLate time.Duration) {
	for i, d := range due {
		at := start.Add(d)
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		if late := time.Since(at); late > maxLate {
			maxLate = late
		}
		fire(i, at)
	}
	return maxLate
}
