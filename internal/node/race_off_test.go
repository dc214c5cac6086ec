//go:build !race

package node

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
