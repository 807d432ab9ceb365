// Package leakcheck fails a test binary whose background goroutines
// outlive its tests. A package that owns workers calls Main from its
// TestMain with markers naming the owners' methods; any test that starts a
// worker and does not stop it then fails the package instead of leaking
// into the tests that run after it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// wait bounds how long Main lets stopped workers finish exiting. Owners'
// stop methods join their goroutines, so the wait only covers goroutines
// that are returning on their own.
const wait = 5 * time.Second

// Main runs the tests, then exits non-zero when a goroutine whose stack
// contains one of markers (such as "storage.(*Persist)") is still running
// after the bounded wait. what names the owners in the failure message.
func Main(m *testing.M, what string, markers ...string) {
	code := m.Run()
	if leaked := goroutines(wait, markers...); leaked != "" {
		fmt.Fprintf(os.Stderr, "FAIL: %s goroutines outlived the tests (an owner was not stopped):\n\n%s\n", what, leaked)
		code = 1
	}
	os.Exit(code)
}

// goroutines polls the goroutine dump until no goroutine's stack contains
// one of markers or the wait expires, and returns the stacks of those
// still running (empty when none are).
func goroutines(wait time.Duration, markers ...string) string {
	deadline := time.Now().Add(wait)
	for {
		var leaked []string
		for _, g := range strings.Split(allStacks(), "\n\n") {
			for _, mk := range markers {
				if strings.Contains(g, mk) {
					leaked = append(leaked, g)
					break
				}
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
