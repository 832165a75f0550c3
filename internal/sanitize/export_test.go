package sanitize

import (
	"fmt"
	"strings"
)

// Test-only API: used by this package's tests, nowhere else.

// EffectSummary renders the checker's findings.
func (c *EffectChecker) EffectSummary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "effects: %d violation(s)", c.Violations)
	for _, f := range c.Findings {
		fmt.Fprintf(&b, "\n  %s", f)
	}
	return b.String()
}
