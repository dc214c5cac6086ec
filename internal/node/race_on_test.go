//go:build race

package node

// raceEnabled reports whether the tests run under the race detector,
// which makes sync.Pool drop a share of its Puts at random; allocation
// budgets that rely on a pooled buffer are only asserted without it.
const raceEnabled = true
