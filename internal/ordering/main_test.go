package ordering

import (
	"testing"

	"socialchain/internal/leakcheck"
)

// TestMain fails the package when a cutter loop or a consensus validator
// started by a test outlives it: every test must stop what it starts.
func TestMain(m *testing.M) {
	leakcheck.Main(m, "ordering service or consensus validator", "ordering.(*Service)", "consensus.(*Validator)")
}
