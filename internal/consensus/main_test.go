package consensus

import (
	"testing"

	"socialchain/internal/leakcheck"
)

// TestMain fails the package when a validator's event loop or overlap
// executor outlives the tests: every test must stop the validators it
// starts.
func TestMain(m *testing.M) {
	leakcheck.Main(m, "consensus validator", "consensus.(*Validator)")
}
