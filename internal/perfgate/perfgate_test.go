package perfgate

import (
	"strings"
	"testing"
)

// TestRatioAlternates pins the call order: one call of each side per
// round, b first on odd rounds.
func TestRatioAlternates(t *testing.T) {
	var order strings.Builder
	Ratio(4, func() { order.WriteByte('a') }, func() { order.WriteByte('b') })
	if got := order.String(); got != "abbaabba" {
		t.Fatalf("call order %q, want \"abbaabba\"", got)
	}
}
