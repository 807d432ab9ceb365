package storage

import (
	"testing"

	"socialchain/internal/leakcheck"
)

// TestMain fails the package when a persist engine's background goroutine
// (flusher, compactor or fsync loop) outlives the tests: every test that
// opens a durable engine must close it, or its workers keep writing into
// directories the test harness is deleting.
func TestMain(m *testing.M) {
	leakcheck.Main(m, "persist engine", "storage.(*Persist)")
}
