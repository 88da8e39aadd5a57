// Package trace provides on-request execution tracing for the contract
// database: span trees recording each evaluation stage (parse,
// canonicalize, translate, the candidate scan with its prefilter and
// per-candidate kernel checks) with start offsets, durations and key
// attributes.
//
// A trace exists only when it is asked for — the HTTP "trace": true
// knob or ctdb query -explain — and is returned inline with the answer;
// nothing is retained. Tracing is free when it is off: span creation
// hangs off the context, a context that carries no active span makes
// StartSpan return a nil *Span, and every method of a nil span is a
// no-op, so the instrumented hot path costs one context lookup and
// allocates nothing (see TestTraceZeroAllocsWhenDisabled).
//
// The request ID, not a trace ID, is what joins a query's records: the
// inline trace, the query-log entry, the slow-query log line and the
// error envelope all carry it.
package trace

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"
)

type ctxKey int

const (
	spanKey ctxKey = iota
	requestIDKey
)

// MaxChildren bounds the children recorded under one span. A scan over
// thousands of candidates would otherwise make a single trace
// arbitrarily large; spans started past the cap still work (attributes,
// End) but are not retained, and the parent counts them in
// ChildrenDropped.
const MaxChildren = 128

// Attr is one key/value annotation on a span. Values are small scalars
// (strings, ints, bools) chosen to marshal cleanly to JSON.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed stage of a trace. StartUS is the offset from the
// trace's start; DurUS is the stage's duration — both in microseconds,
// matching the metrics histograms' unit. A span is mutable until End
// and must not be modified after its trace is finished.
type Span struct {
	Name            string  `json:"name"`
	StartUS         int64   `json:"start_us"`
	DurUS           int64   `json:"dur_us"`
	Attrs           []Attr  `json:"attrs,omitempty"`
	Error           string  `json:"error,omitempty"`
	Children        []*Span `json:"children,omitempty"`
	ChildrenDropped int     `json:"children_dropped,omitempty"`

	mu    sync.Mutex // guards Attrs, Children, ChildrenDropped
	epoch time.Time  // the owning trace's start, for StartUS offsets
	start time.Time
}

// End stamps the span's duration. Safe on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.DurUS = time.Since(s.start).Microseconds()
}

// SetAttr annotates the span. Safe on a nil span, but hot paths should
// guard with `if s != nil` so argument boxing is not paid when tracing
// is off.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetError records the error the span's stage failed with. Safe on a
// nil span or a nil error.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.Error = err.Error()
}

// addChild attaches c under s, enforcing MaxChildren. Safe under
// concurrent calls (the parallel candidate scan records sibling spans
// from many workers).
func (s *Span) addChild(c *Span) {
	s.mu.Lock()
	if len(s.Children) >= MaxChildren {
		s.ChildrenDropped++
	} else {
		s.Children = append(s.Children, c)
	}
	s.mu.Unlock()
}

// SpanFrom returns the context's active span, or nil when the context
// carries none (tracing off for this call chain). A nil context is
// fine.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// StartSpan starts a child of the context's active span and returns a
// context carrying it. When the context has no active span it returns
// the context unchanged and a nil span — the disabled path, which
// allocates nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	now := time.Now()
	s := &Span{Name: name, StartUS: now.Sub(parent.epoch).Microseconds(), epoch: parent.epoch, start: now}
	parent.addChild(s)
	return context.WithValue(ctx, spanKey, s), s
}

// Trace is one query's span tree plus the request it belongs to. It is
// immutable once finished.
type Trace struct {
	Name      string `json:"name"` // always "query"
	RequestID string `json:"request_id,omitempty"`
	Query     string `json:"query,omitempty"`
	// StartUnixUS is the trace's wall-clock start (Unix microseconds);
	// span StartUS offsets are relative to it.
	StartUnixUS int64 `json:"start_unix_us"`
	DurUS       int64 `json:"dur_us"`
	Root        *Span `json:"root"`
}

// Start begins a trace of one query evaluation, rooted at a "query"
// span covering all of it, and returns a context whose active span is
// that root, so every StartSpan down the call chain records under it.
// Call Finish on the trace when the evaluation is done.
func Start(ctx context.Context, query, requestID string) (context.Context, *Trace) {
	now := time.Now()
	tr := &Trace{
		Name:        "query",
		Query:       query,
		RequestID:   requestID,
		StartUnixUS: now.UnixMicro(),
		Root:        &Span{Name: "query", epoch: now, start: now},
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey, tr.Root), tr
}

// Finish stamps the trace's duration. Safe on a nil trace.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.Root.End()
	tr.DurUS = tr.Root.DurUS
}

// NewRequestID mints a request identifier in the form the server
// generates when a request arrives without an X-Request-ID header.
func NewRequestID() string { return fmt.Sprintf("req-%016x", rand.Uint64()) }

// WithRequestID returns a context carrying the request identifier, for
// stamping into spans and error responses down the call chain.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the context's request identifier, or "".
func RequestID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// Pretty renders the span tree as an indented text diagram headed by
// the request ID, the format ctdb query -explain prints:
//
//	query 1.8ms (req-4567…) "F refund"
//	├─ parse 12µs
//	├─ translate 310µs states=14
//	└─ scan 1.4ms checked=37 matched=5
//	   ├─ check 210µs contract=contract-3 permits=true
//	   …
func (tr *Trace) Pretty() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s", tr.Name, fmtUS(tr.DurUS))
	if tr.RequestID != "" {
		fmt.Fprintf(&b, " (%s)", tr.RequestID)
	}
	if tr.Query != "" {
		fmt.Fprintf(&b, " %q", tr.Query)
	}
	b.WriteString("\n")
	writeSpans(&b, tr.Root.Children, "")
	return b.String()
}

func writeSpans(b *strings.Builder, spans []*Span, indent string) {
	for i, s := range spans {
		last := i == len(spans)-1
		branch, next := "├─ ", "│  "
		if last {
			branch, next = "└─ ", "   "
		}
		fmt.Fprintf(b, "%s%s%s %s", indent, branch, s.Name, fmtUS(s.DurUS))
		for _, a := range s.Attrs {
			fmt.Fprintf(b, " %s=%v", a.Key, a.Value)
		}
		if s.Error != "" {
			fmt.Fprintf(b, " error=%q", s.Error)
		}
		if s.ChildrenDropped > 0 {
			fmt.Fprintf(b, " (+%d children dropped)", s.ChildrenDropped)
		}
		b.WriteString("\n")
		writeSpans(b, s.Children, indent+next)
	}
}

func fmtUS(us int64) string {
	return (time.Duration(us) * time.Microsecond).String()
}
