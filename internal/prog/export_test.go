package prog

// Test-only API: used by this package's tests, nowhere else.

// Verify runs the static checks against the builder's current state and
// returns the findings without panicking (Build panics on the same
// findings). name labels the diagnostics. The frame size is unknown here,
// so frame-slot effects are only range-checked at Build/VerifyOp.
func (b *Builder) Verify(name string) []Diagnostic {
	return b.verifyAll(name, -1)
}
