//go:build !race

package qaoaml

// raceEnabled reports whether the race detector instruments this build;
// the benchmark digest gate is skipped under it.
const raceEnabled = false
