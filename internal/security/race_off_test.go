//go:build !race

package security

// raceEnabled: see race_on_test.go.
const raceEnabled = false
