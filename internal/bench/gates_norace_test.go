//go:build !race

package bench_test

// Budgets of the wall-clock ratios the tests in this package report, at
// their real acceptance values. The tests log their ratio against the
// budget and assert only behaviour: a ratio measured inside `go test` on a
// shared box is not a claim. The race-instrumented build
// (gates_race_test.go) prints looser budgets: under the race detector
// every operation stretches, so latency ratios stop measuring the
// mechanism under test.
const (
	// Admitted-p99 envelope relative to unloaded p99 in TestStormSmoke.
	stormLatencySlack = 2.0
	// Trace-propagation P90 overhead gate in TestTraceOverhead: the
	// ISSUE budget is <2%, with a noise allowance for loaded CI boxes.
	traceOverheadGate = 0.03
)
