// Package leakcheck is a dependency-free goroutine-leak check for a
// package's tests. Call Main from TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wait bounds how long goroutines that are already stopping get to
// exit after the tests before they count as leaked.
const wait = 10 * time.Second

// Main runs the tests and exits the process. It fails the run when
// goroutines outlive the tests: after m.Run the count must fall back to
// its pre-run value within a bounded wait, or every goroutine's stack
// is printed and the run exits non-zero.
func Main(m *testing.M) {
	before := len(goroutines())
	code := m.Run()
	deadline := time.Now().Add(wait)
	after := goroutines()
	for len(after) > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = goroutines()
	}
	if len(after) > before {
		fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before\n%s\n",
			len(after), before, strings.Join(after, "\n\n"))
		code = 1
	}
	os.Exit(code)
}

// goroutines returns the stack of every goroutine except os/signal's
// receive loop, which the first signal.Notify starts for the life of
// the process — go test -fuzz does so while the tests run.
func goroutines() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var stacks []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "os/signal.signal_recv") {
			stacks = append(stacks, g)
		}
	}
	return stacks
}
