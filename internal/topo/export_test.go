package topo

// Test-only API: used by this package's tests, nowhere else.

// Oversubscribed reports whether n software threads exceed the machine's
// hardware contexts, i.e. whether the OS must timeslice.
func (t Topology) Oversubscribed(n int) bool { return n > t.Contexts() }
