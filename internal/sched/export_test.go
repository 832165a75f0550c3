package sched

// Test-only API: used by this package's tests, nowhere else.

// SetDone marks the thread finished; the scheduler stops stepping it.
func (t *Thread) SetDone() { t.done = true }
