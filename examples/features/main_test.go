package main

import "testing"

// TestExampleRuns runs the example end to end. A failure ends it in
// log.Fatal, which fails the test binary.
func TestExampleRuns(t *testing.T) { main() }
