//go:build !unix

package mem

// mapping is empty where there is no mmap: the backing store is an
// ordinary Go allocation the GC reclaims.
type mapping struct{}

func zeroedBytes(size int) ([]byte, *mapping) { return make([]byte, size), nil }
