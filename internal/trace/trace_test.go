package trace_test

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"contractdb/internal/trace"
)

func TestSpanTreeStructure(t *testing.T) {
	ctx, tt := trace.Start(context.Background(), "F refund", "req-1")
	cctx, parse := trace.StartSpan(ctx, "parse")
	parse.SetAttr("ok", true)
	parse.End()
	if trace.SpanFrom(cctx) != parse {
		t.Error("StartSpan's context does not carry the new span")
	}
	sctx, scan := trace.StartSpan(ctx, "scan")
	for i := 0; i < 3; i++ {
		_, c := trace.StartSpan(sctx, "check")
		c.End()
	}
	scan.End()
	tt.Finish()

	if tt.Name != "query" || tt.Query != "F refund" || tt.RequestID != "req-1" {
		t.Errorf("trace identity = %+v", tt)
	}
	root := tt.Root
	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2 (parse, scan)", len(root.Children))
	}
	if root.Children[0].Name != "parse" || root.Children[1].Name != "scan" {
		t.Errorf("children = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	if got := len(root.Children[1].Children); got != 3 {
		t.Errorf("scan recorded %d checks, want 3", got)
	}
	if tt.DurUS < 0 || root.DurUS != tt.DurUS {
		t.Errorf("trace duration %d != root duration %d", tt.DurUS, root.DurUS)
	}
	// Children are bounded by the trace total (they ran inside it).
	var sum int64
	for _, c := range root.Children {
		sum += c.DurUS
	}
	if sum > tt.DurUS+1000 {
		t.Errorf("child durations sum to %dµs, exceeding total %dµs", sum, tt.DurUS)
	}
}

func TestDisabledPathIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := trace.StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan without an active span must return nil")
	}
	if ctx2 != ctx {
		t.Error("disabled StartSpan must return the context unchanged")
	}
	// Every method must be a safe no-op on the nil span.
	sp.SetAttr("k", "v")
	sp.SetError(nil)
	sp.End()
	var tt *trace.Trace
	tt.Finish()
}

func TestConcurrentChildrenAndCap(t *testing.T) {
	ctx, tt := trace.Start(context.Background(), "q", "")
	sctx, scan := trace.StartSpan(ctx, "scan")
	var wg sync.WaitGroup
	const n = trace.MaxChildren + 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, c := trace.StartSpan(sctx, "check")
			c.SetAttr("i", 1)
			c.End()
		}()
	}
	wg.Wait()
	scan.End()
	tt.Finish()
	if len(scan.Children) != trace.MaxChildren {
		t.Errorf("scan kept %d children, want cap %d", len(scan.Children), trace.MaxChildren)
	}
	if scan.ChildrenDropped != n-trace.MaxChildren {
		t.Errorf("dropped %d children, want %d", scan.ChildrenDropped, n-trace.MaxChildren)
	}
}

func TestRequestIDContext(t *testing.T) {
	id := trace.NewRequestID()
	if !strings.HasPrefix(id, "req-") || id == trace.NewRequestID() {
		t.Errorf("request ids must be unique and prefixed: %q", id)
	}
	ctx := trace.WithRequestID(context.Background(), id)
	if got := trace.RequestID(ctx); got != id {
		t.Errorf("RequestID = %q, want %q", got, id)
	}
	if got := trace.RequestID(context.Background()); got != "" {
		t.Errorf("RequestID without one = %q, want empty", got)
	}
}

func TestJSONRoundTripAndPretty(t *testing.T) {
	ctx, tt := trace.Start(context.Background(), "F refund", "req-7")
	_, sp := trace.StartSpan(ctx, "translate")
	sp.SetAttr("states", 14)
	sp.End()
	tt.Finish()

	buf, err := json.Marshal(tt)
	if err != nil {
		t.Fatal(err)
	}
	var back trace.Trace
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.RequestID != tt.RequestID || back.Root == nil || len(back.Root.Children) != 1 {
		t.Errorf("round-trip lost structure: %+v", back)
	}

	pretty := tt.Pretty()
	for _, want := range []string{"query", "translate", "states=14", "req-7"} {
		if !strings.Contains(pretty, want) {
			t.Errorf("Pretty() missing %q:\n%s", want, pretty)
		}
	}
}
