//go:build race

package security

// raceEnabled reports that this binary carries the race detector, under
// which sync.Pool drops a fraction of Puts and the allocation gate would
// count buffers production never allocates.
const raceEnabled = true
