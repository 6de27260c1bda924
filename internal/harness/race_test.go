//go:build race

package harness

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of what is put back, so a pooled path's allocation
// count means nothing there.
const raceEnabled = true
