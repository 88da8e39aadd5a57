//go:build !race

package trace_test

import (
	"context"
	"testing"

	"contractdb/internal/trace"
)

// TestTraceZeroAllocsWhenDisabled asserts the tentpole property of the
// tracing layer: when a query is not traced — no span in the context —
// the instrumentation on the hot path allocates nothing. This is what
// lets the span calls live unconditionally inside core's evaluation
// loop. Mirrors internal/permission's TestSteadyStateZeroAllocs;
// excluded under -race, whose instrumented runtime allocates on its
// own.
func TestTraceZeroAllocsWhenDisabled(t *testing.T) {
	ctx := context.Background()
	run := func() {
		// The per-stage instrumentation, as core uses it.
		sctx, sp := trace.StartSpan(ctx, "scan")
		if sp != nil {
			t.Fatal("span created without an active trace")
		}
		sp.End()
		// The per-candidate loop body (guarded attrs, like checkOne).
		for i := 0; i < 100; i++ {
			_, c := trace.StartSpan(sctx, "check")
			if c != nil {
				c.SetAttr("i", i)
			}
			c.End()
		}
		if trace.SpanFrom(sctx) != nil {
			t.Fatal("untraced context carries a span")
		}
		_ = trace.RequestID(ctx)
	}
	run() // warm up
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("disabled tracing allocates %.1f times per query, want 0", avg)
	}
}
