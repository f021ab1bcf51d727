//go:build !linux

package main

import "errors"

// pinToCPUs is only implemented on Linux; elsewhere the benchmark runs
// unpinned and says so in its result file.
func pinToCPUs(int) ([]int, error) {
	return nil, errors.New("cpu pinning needs linux")
}
