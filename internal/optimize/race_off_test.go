//go:build !race

package optimize

// raceEnabled reports whether the race detector instruments this build;
// allocation-count pins are skipped under it (instrumentation allocates).
const raceEnabled = false
