// Package realclock is a known-bad detclock fixture: a layer that falls
// back to the wall clock instead of reading the clock of its node.
package realclock

import "odp/internal/clock"

// Pacer paces work on a clock.
type Pacer struct{ clk clock.Clock }

// NewPacer defaults a missing clock to the wall clock.
func NewPacer(clk clock.Clock) *Pacer {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Pacer{clk: clk}
}

// Stamp reads the wall clock through a literal.
func Stamp() int64 { return clock.Real{}.Now().UnixNano() }
