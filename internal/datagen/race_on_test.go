//go:build race

package datagen

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it (instrumentation
// allocates).
const raceEnabled = true
