//go:build race

package bench_test

// Race-detector build: loosened budgets. Instrumentation multiplies the
// cost of the exact code paths these tests meter (per-op atomic and
// channel traffic), so the measured ratios reflect the detector, not
// the mechanism — e.g. the 9-byte trace trailer reads as 5-10% under
// -race on a 1-core box versus <2% without. The tests assert behaviour
// only; the ratios are logged against these budgets.
const (
	stormLatencySlack = 4.0
	traceOverheadGate = 0.15
)
