// Package leakcheck fails a test binary that leaves a goroutine of this
// module running once its tests are done. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// frame starts every stack-dump line that names a function of this module.
const frame = "\nshardingsphere/"

// Main runs the tests, then takes one snapshot of every goroutine and
// fails the binary when one other than its own still has a frame of this
// module. It neither polls nor sleeps: what a test starts, its Close waits
// for. One P and one yield first let a goroutine that a Close's Wait has
// already released finish returning.
func Main(m *testing.M) {
	code := m.Run()
	runtime.GOMAXPROCS(1)
	runtime.Gosched()
	if code == 0 {
		if left := leftover(); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutines of this module outlive the tests:\n\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leftover returns the stack of each goroutine but the caller's that has a
// frame of this module.
func leftover() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Blank lines separate the goroutines; the caller's comes first.
	var left []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, frame) {
			left = append(left, g)
		}
	}
	return left
}
