//go:build race

package livenet

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
