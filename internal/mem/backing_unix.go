//go:build unix

package mem

import (
	"fmt"
	"runtime"
	"syscall"
)

// mapping owns one anonymous private mapping. Its only pointer leads
// outside the Go heap, so it sits in no reference cycle (a Memory does)
// and its finalizer is guaranteed to run once the Memory holding it is
// unreachable: a Memory that is never Released is unmapped, not leaked.
type mapping struct{ b []byte }

// zeroedBytes returns size zero bytes outside the Go heap. The pages cost
// nothing until a run touches them, and the GC neither scans them nor
// counts them towards its heap goal.
func zeroedBytes(size int) ([]byte, *mapping) {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("mem: mapping %d bytes of simulated memory: %v", size, err))
	}
	h := &mapping{b: b}
	runtime.SetFinalizer(h, func(h *mapping) { _ = syscall.Munmap(h.b) })
	return b, h
}
