//go:build race

package rpc

// raceEnabled reports that this binary carries the race detector; the
// long serial run is shortened under it.
const raceEnabled = true
