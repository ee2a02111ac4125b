//go:build !race

package experiments

// raceEnabled reports whether the race detector instruments this build;
// the reference-scale claims test is skipped under it (too slow).
const raceEnabled = false
