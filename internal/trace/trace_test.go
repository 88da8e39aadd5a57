package trace_test

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"contractdb/internal/trace"
)

func TestSpanTreeStructure(t *testing.T) {
	tr := trace.New(trace.Config{})
	ctx, tt := tr.StartQuery(context.Background(), "F refund", "req-1", true)
	if tt == nil {
		t.Fatal("forced query trace was not started")
	}
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
	tr.Finish(tt)

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

	var tr *trace.Tracer
	cctx, tt := tr.StartQuery(ctx, "q", "", true)
	if tt != nil || cctx != ctx {
		t.Error("nil tracer must not trace")
	}
	tr.Finish(tt)
	if tr.Recent() != nil || tr.Slow() != nil {
		t.Error("nil tracer must report no traces")
	}
}

func TestSampling(t *testing.T) {
	tr := trace.New(trace.Config{SampleEvery: 3})
	traced := 0
	for i := 0; i < 9; i++ {
		_, tt := tr.StartQuery(context.Background(), "q", "", false)
		if tt != nil {
			traced++
		}
		tr.Finish(tt)
	}
	if traced != 3 {
		t.Errorf("1-in-3 sampling traced %d of 9 queries, want 3", traced)
	}
	if got := len(tr.Recent()); got != 3 {
		t.Errorf("recent ring holds %d traces, want 3", got)
	}

	off := trace.New(trace.Config{})
	if _, tt := off.StartQuery(context.Background(), "q", "", false); tt != nil {
		t.Error("no sampling and no slow threshold must not trace")
	}
	if _, tt := off.StartQuery(context.Background(), "q", "", true); tt == nil {
		t.Error("forced query must always trace")
	}
}

func TestSlowQueryRetention(t *testing.T) {
	var hooked []*trace.Trace
	tr := trace.New(trace.Config{
		SlowThreshold: time.Microsecond,
		OnSlow:        func(t *trace.Trace) { hooked = append(hooked, t) },
	})
	// Not sampled, but the slow threshold makes it speculatively traced.
	_, tt := tr.StartQuery(context.Background(), "slow one", "", false)
	if tt == nil {
		t.Fatal("slow-query threshold must trace speculatively")
	}
	time.Sleep(2 * time.Millisecond)
	tr.Finish(tt)
	slow := tr.Slow()
	if len(slow) != 1 || !slow[0].Slow || slow[0].Query != "slow one" {
		t.Fatalf("slow ring = %+v, want the one slow query", slow)
	}
	if len(hooked) != 1 || hooked[0] != slow[0] {
		t.Errorf("OnSlow hook saw %d traces, want the slow one", len(hooked))
	}
	// Speculative traces that come in fast are discarded entirely.
	fast := trace.New(trace.Config{SlowThreshold: time.Hour})
	_, tt = fast.StartQuery(context.Background(), "fast", "", false)
	fast.Finish(tt)
	if len(fast.Slow()) != 0 || len(fast.Recent()) != 0 {
		t.Error("fast speculative trace must be discarded")
	}
}

func TestRingBounds(t *testing.T) {
	tr := trace.New(trace.Config{BufferSize: 4})
	for i := 0; i < 20; i++ {
		_, tt := tr.StartQuery(context.Background(), "q", "", true)
		tr.Finish(tt)
	}
	if got := len(tr.Recent()); got != 4 {
		t.Errorf("ring retained %d traces, want capacity 4", got)
	}
}

func TestConcurrentChildrenAndCap(t *testing.T) {
	tr := trace.New(trace.Config{})
	ctx, tt := tr.StartQuery(context.Background(), "q", "", true)
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
	tr.Finish(tt)
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
	tr := trace.New(trace.Config{})
	ctx, tt := tr.StartQuery(context.Background(), "F refund", "req-7", true)
	_, sp := trace.StartSpan(ctx, "translate")
	sp.SetAttr("states", 14)
	sp.End()
	tr.Finish(tt)

	buf, err := json.Marshal(tt)
	if err != nil {
		t.Fatal(err)
	}
	var back trace.Trace
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != tt.ID || back.Root == nil || len(back.Root.Children) != 1 {
		t.Errorf("round-trip lost structure: %+v", back)
	}

	pretty := tt.Pretty()
	for _, want := range []string{"query", "translate", "states=14", "req-7"} {
		if !strings.Contains(pretty, want) {
			t.Errorf("Pretty() missing %q:\n%s", want, pretty)
		}
	}
}

// TestParseTraceparent pins the W3C trace-context header grammar: a
// version-00 header is exactly 55 characters, a later version may carry
// further fields, and version ff, uppercase hex and all-zero IDs are
// invalid.
func TestParseTraceparent(t *testing.T) {
	const (
		tid = "4bf92f3577b34da6a3ce929d0e0e4736"
		sid = "00f067aa0ba902b7"
	)
	cases := []struct {
		name    string
		header  string
		ok      bool
		sampled bool
	}{
		{"valid", "00-" + tid + "-" + sid + "-01", true, true},
		{"valid unsampled", "00-" + tid + "-" + sid + "-00", true, false},
		{"version ff", "ff-" + tid + "-" + sid + "-01", false, false},
		{"zero trace id", "00-00000000000000000000000000000000-" + sid + "-01", false, false},
		{"zero span id", "00-" + tid + "-0000000000000000-01", false, false},
		{"uppercase hex", "00-" + strings.ToUpper(tid) + "-" + sid + "-01", false, false},
		{"too short", "00-" + tid + "-" + sid + "-0", false, false},
		{"version 00 with trailing field", "00-" + tid + "-" + sid + "-01-what-the-future-will-be-like", false, false},
		{"version 01 with trailing field", "01-" + tid + "-" + sid + "-01-what-the-future-will-be-like", true, true},
		{"version 01 with unseparated tail", "01-" + tid + "-" + sid + "-01x", false, false},
	}
	for _, tc := range cases {
		sc, ok := trace.ParseTraceparent(tc.header)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if sc.TraceID != tid || sc.SpanID != 0x00f067aa0ba902b7 || sc.Sampled != tc.sampled {
			t.Errorf("%s: parsed %+v", tc.name, sc)
		}
	}
}
