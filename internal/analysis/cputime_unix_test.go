//go:build unix

package analysis

import (
	"syscall"
	"testing"
	"time"
)

// processCPU returns the CPU time (user plus system) the test process has
// used so far, garbage collection included.
func processCPU(t *testing.T) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
