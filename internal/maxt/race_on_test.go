//go:build race

package maxt

// raceEnabled reports whether the race detector is built in.
const raceEnabled = true
