//go:build !race

package repro

// raceEnabled reports a -race build, under which allocation gates on
// sync.Pool-backed paths skip.
const raceEnabled = false
