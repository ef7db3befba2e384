//go:build race

package sparse

// raceEnabled reports whether the race detector is active; allocation-
// accounting checks skip under it because it randomly bypasses sync.Pool
// (the arena recycling path), charging spurious allocations.
const raceEnabled = true
