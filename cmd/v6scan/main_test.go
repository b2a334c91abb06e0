package main

import (
	"testing"

	"v6scan/internal/leakcheck"
)

// TestMain fails the package's run when goroutines outlive its tests:
// the command seam runs whole pipelines in process, and must stop
// every worker it starts, on error paths too.
func TestMain(m *testing.M) { leakcheck.Main(m) }
