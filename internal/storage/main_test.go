package storage

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package when a persist engine's background goroutine
// (flusher, compactor or fsync loop) outlives the tests: every test that
// opens a durable engine must close it, or its workers keep writing into
// directories the test harness is deleting.
func TestMain(m *testing.M) {
	code := m.Run()
	if leaked := persistGoroutines(5 * time.Second); leaked != "" {
		fmt.Fprintf(os.Stderr, "FAIL: persist engine goroutines outlived the tests (an engine was not closed):\n\n%s\n", leaked)
		code = 1
	}
	os.Exit(code)
}

// persistGoroutines polls the goroutine dump until no goroutine runs
// persist engine code or the wait expires, and returns the stacks of
// those still running (empty when none are). Close joins the workers, so
// the wait only covers goroutines that are finishing on their own.
func persistGoroutines(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		var leaked []string
		for _, g := range strings.Split(allStacks(), "\n\n") {
			if strings.Contains(g, "storage.(*Persist)") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// allStacks returns the stacks of every goroutine.
func allStacks() string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
