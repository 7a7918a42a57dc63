//go:build !unix

package analysis

import (
	"testing"
	"time"
)

// processCPU skips the calling test: process CPU time is read with
// getrusage, which only unix systems provide.
func processCPU(t *testing.T) time.Duration {
	t.Skip("process CPU time needs getrusage")
	return 0
}
