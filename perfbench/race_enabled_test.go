//go:build race

package main

// raceEnabled reports that this test binary was built with the race
// detector, which slows the instrumented handler code far more than
// the filter probe, so the traced run's ledger no longer adds up.
const raceEnabled = true
