//go:build !race

package sparse

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
