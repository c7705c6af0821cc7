// Package leaktest fails a test whose goroutines outlive it: a writer that
// never wakes, a stream handler that never returns, a follow loop nobody
// cancelled. Only test files import it.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Check counts the goroutines running now and registers a cleanup that
// waits up to two seconds for the count to fall back to it, then fails t
// with every goroutine's stack. Cleanups run last-registered first, so
// call Check before starting anything: the cleanups that stop what the
// test started then run before it. Tests that use it must not run in
// parallel, since the count is the whole process's.
func Check(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Errorf("%d goroutines before the test, %d after it:\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
