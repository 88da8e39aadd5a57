//go:build !race

package trace_test

import (
	"context"
	"testing"

	"contractdb/internal/trace"
)

// TestTraceZeroAllocsWhenDisabled asserts the tentpole property of the
// tracing layer: when a query is not traced — no span in the context,
// no sampler hit, no slow-query threshold — the instrumentation on the
// hot path allocates nothing. This is what lets the span calls live
// unconditionally inside core's evaluation loop. Mirrors
// internal/permission's TestSteadyStateZeroAllocs; excluded under
// -race, whose instrumented runtime allocates on its own.
func TestTraceZeroAllocsWhenDisabled(t *testing.T) {
	ctx := context.Background()
	tr := trace.New(trace.Config{}) // no sampling, no slow threshold
	var nilTracer *trace.Tracer

	run := func() {
		// The per-query decision: not forced, not sampled → no trace.
		qctx, tt := tr.StartQuery(ctx, "", "", false)
		if tt != nil {
			t.Fatal("query unexpectedly traced")
		}
		// The per-stage instrumentation, as core uses it.
		sctx, sp := trace.StartSpan(qctx, "scan")
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
		tr.Finish(tt)
		// A nil tracer (no observability configured at all).
		_, tt = nilTracer.StartQuery(ctx, "", "", false)
		nilTracer.Finish(tt)
		_ = trace.RequestID(ctx)
		// Link capture on an untraced context — what the stream
		// workers do on every operation — and the linked-start it
		// gates, both no-ops without a valid link.
		link := trace.SpanContextFrom(qctx)
		if link.Valid() {
			t.Fatal("untraced context produced a valid link")
		}
		_, lt := tr.StartLinked(ctx, "stream_apply", link)
		tr.Finish(lt)
		_, lt = nilTracer.StartLinked(ctx, "stream_apply", link)
		nilTracer.Finish(lt)
	}
	run() // warm up
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Fatalf("disabled tracing allocates %.1f times per query, want 0", avg)
	}
}
