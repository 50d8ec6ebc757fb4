//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build;
// allocation-count guards skip themselves when it does.
const raceEnabled = false
