package core

import (
	"testing"

	"v6scan/internal/leakcheck"
)

// TestMain fails the package's run when goroutines outlive its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }
