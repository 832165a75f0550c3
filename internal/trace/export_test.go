package trace

// Test-only API: used by this package's tests, nowhere else.

// Ring reports whether the recorder keeps the last (rather than the first)
// N events.
func (r *Recorder) Ring() bool { return r.ring }
