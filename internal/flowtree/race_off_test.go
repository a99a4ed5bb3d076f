//go:build !race

package flowtree

const raceEnabled = false
