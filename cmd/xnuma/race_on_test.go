//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the
// artefact golden skips itself under race, where regenerating every
// artefact twice takes minutes.
const raceEnabled = true
