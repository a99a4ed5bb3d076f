//go:build race

package flowtree

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// quarter of what is Put, so pooled-scratch allocation counts do not hold.
const raceEnabled = true
