//go:build !race

package insights

import "testing"

// TestInsightsZeroAllocsWhenDisabled pins the disabled path to zero
// allocations: with no insights log configured (nil *Log), the
// server's guard — Enabled() before entry assembly — plus the nil
// method receivers must add nothing to the per-query cost. Mirrors
// internal/trace's TestTraceZeroAllocsWhenDisabled; excluded under
// -race, whose instrumented runtime allocates on its own.
func TestInsightsZeroAllocsWhenDisabled(t *testing.T) {
	var l *Log
	run := func() {
		if l.Enabled() {
			t.Fatal("nil log enabled")
		}
		l.Record(nil)
	}
	run() // warm up
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("disabled insights allocates %.1f times per query, want 0", avg)
	}
}
