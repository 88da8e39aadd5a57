// Package trace provides per-query execution tracing for the contract
// database: span trees recording each evaluation stage (parse,
// canonicalize, cache lookups, prefilter, per-candidate kernel checks)
// with start offsets, durations and key attributes, collected into
// lock-cheap bounded ring buffers.
//
// The design goal mirrors internal/metrics' "always on" counters from
// the other direction: tracing is *opt-in per query* and free when it
// is off. Span creation hangs off the context — a context that carries
// no active span makes StartSpan return a nil *Span, every method of
// which is a nil-safe no-op, so the instrumented hot path costs one
// context lookup and allocates nothing (see TestTraceZeroAllocsWhenDisabled).
//
// A Tracer decides which queries get a trace: explicitly requested
// ones (the HTTP "trace": true knob, ctdb query -explain) always do;
// otherwise a 1-in-N sampler fills the recent-trace ring, and when a
// slow-query threshold is configured every query is traced but the
// trace is *retained* only if the query exceeds the threshold (the
// slow-query log) or the sampler picked it anyway. Finished traces are
// immutable and served by GET /v1/traces and /v1/traces/slow.
package trace

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type ctxKey int

const (
	spanKey ctxKey = iota
	requestIDKey
	remoteKey
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
	Name string `json:"name"`
	// SpanID is the span's W3C trace-context identifier (random 64-bit,
	// rendered as 16 hex chars in traceparent headers and OTLP export).
	// Only spans of an active trace carry one; the disabled path never
	// builds a Span at all.
	SpanID          uint64  `json:"span_id,omitempty"`
	StartUS         int64   `json:"start_us"`
	DurUS           int64   `json:"dur_us"`
	Attrs           []Attr  `json:"attrs,omitempty"`
	Error           string  `json:"error,omitempty"`
	Children        []*Span `json:"children,omitempty"`
	ChildrenDropped int     `json:"children_dropped,omitempty"`

	mu      sync.Mutex // guards Attrs, Children, ChildrenDropped
	epoch   time.Time  // the owning trace's start, for StartUS offsets
	start   time.Time
	traceID string // the owning trace's W3C ID, for SpanContextFrom
}

func newSpan(name string, parent *Span) *Span {
	now := time.Now()
	return &Span{
		Name:    name,
		SpanID:  rand.Uint64(),
		StartUS: now.Sub(parent.epoch).Microseconds(),
		epoch:   parent.epoch,
		start:   now,
		traceID: parent.traceID,
	}
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
	s := newSpan(name, parent)
	parent.addChild(s)
	return context.WithValue(ctx, spanKey, s), s
}

// SpanContext is the W3C trace-context identity of one span: enough to
// continue its trace in another component (or another process) and to
// stitch the continuation back under it at export time. The zero value
// is "no context" and Valid reports false for it.
type SpanContext struct {
	TraceID string // 32 lowercase hex chars
	SpanID  uint64
	Sampled bool
}

// Valid reports whether the context identifies a real span.
func (sc SpanContext) Valid() bool {
	return len(sc.TraceID) == traceIDHexLen && sc.SpanID != 0
}

// Traceparent renders the context as a W3C traceparent header value
// (version 00).
func (sc SpanContext) Traceparent() string {
	flags := 0
	if sc.Sampled {
		flags = 1
	}
	return fmt.Sprintf("00-%s-%016x-%02x", sc.TraceID, sc.SpanID, flags)
}

const traceIDHexLen = 32

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex>"). Unknown versions are accepted per
// the spec as long as the version-00 prefix parses; all-zero trace or
// span IDs are rejected as the spec requires.
func ParseTraceparent(h string) (SpanContext, bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	if len(h) > 55 && h[55] != '-' {
		return SpanContext{}, false
	}
	if !isLowerHex(h[0:2]) || h[0:2] == "ff" {
		return SpanContext{}, false
	}
	traceID := h[3:35]
	if !isLowerHex(traceID) || traceID == "00000000000000000000000000000000" {
		return SpanContext{}, false
	}
	spanHex := h[36:52]
	if !isLowerHex(spanHex) {
		return SpanContext{}, false
	}
	var spanID uint64
	for i := 0; i < 16; i++ {
		spanID = spanID<<4 | uint64(hexVal(spanHex[i]))
	}
	if spanID == 0 {
		return SpanContext{}, false
	}
	flagsHex := h[53:55]
	if !isLowerHex(flagsHex) {
		return SpanContext{}, false
	}
	flags := hexVal(flagsHex[0])<<4 | hexVal(flagsHex[1])
	return SpanContext{TraceID: traceID, SpanID: spanID, Sampled: flags&1 == 1}, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func hexVal(c byte) int {
	if c <= '9' {
		return int(c - '0')
	}
	return int(c-'a') + 10
}

// WithRemote returns a context carrying an inbound remote span context
// (a parsed traceparent header). The server's middleware installs it;
// StartQuery and Start adopt it so the local trace joins the caller's.
func WithRemote(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, remoteKey, sc)
}

// Remote returns the context's inbound remote span context, or the
// zero value.
func Remote(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	sc, _ := ctx.Value(remoteKey).(SpanContext)
	return sc
}

// SpanContextFrom returns the identity of the context's active span,
// or the zero value when tracing is off for this call chain. It is the
// capture half of cross-component propagation: a component about to
// hand work to an asynchronous stage (a stream apply) captures the
// span context here and the stage continues it with StartLinked.
// Allocation-free on the disabled path.
func SpanContextFrom(ctx context.Context) SpanContext {
	s := SpanFrom(ctx)
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.SpanID, Sampled: true}
}

// Trace is one finished (or in-flight) span tree plus its identity.
// Finished traces are immutable and shared between the rings and any
// response they were returned inline with.
type Trace struct {
	// ID is the trace's W3C trace-context identifier (32 lowercase hex
	// chars): adopted from the caller's traceparent when one arrived,
	// minted otherwise. Traces that continue one request across
	// asynchronous stages (StartLinked) share an ID; GET
	// /v1/traces/{id} collects them all.
	ID        string `json:"id"`
	Name      string `json:"name"` // "query", "checkpoint", "recovery", ...
	RequestID string `json:"request_id,omitempty"`
	Query     string `json:"query,omitempty"`
	// ParentSpan, when non-zero, is the span (in another trace sharing
	// this ID) that caused this trace: the append span for a stream
	// apply.
	ParentSpan uint64 `json:"parent_span,omitempty"`
	// StartUnixUS is the trace's wall-clock start (Unix microseconds);
	// span StartUS offsets are relative to it.
	StartUnixUS int64 `json:"start_unix_us"`
	DurUS       int64 `json:"dur_us"`
	Slow        bool  `json:"slow,omitempty"`
	Root        *Span `json:"root"`

	sampled bool // destined for the recent ring regardless of duration
	isQuery bool // subject to slow-query classification in Finish
}

func newID(prefix string) string {
	return fmt.Sprintf("%s-%016x", prefix, rand.Uint64())
}

// NewTraceID mints a W3C trace identifier: 32 lowercase hex chars.
func NewTraceID() string {
	return fmt.Sprintf("%016x%016x", rand.Uint64(), rand.Uint64())
}

// NewRequestID mints a request identifier in the form the server
// generates when a request arrives without an X-Request-ID header.
func NewRequestID() string { return newID("req") }

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

// ring is a lock-free bounded buffer of finished traces: writers claim
// a slot with one atomic add and publish with one atomic store.
type ring struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

func newRing(n int) *ring {
	if n <= 0 {
		return nil
	}
	return &ring{slots: make([]atomic.Pointer[Trace], n)}
}

func (r *ring) put(t *Trace) {
	if r == nil {
		return
	}
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(t)
}

// snapshot returns the retained traces, newest first.
func (r *ring) snapshot() []*Trace {
	if r == nil {
		return nil
	}
	out := make([]*Trace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixUS > out[j].StartUnixUS })
	return out
}

// Config configures a Tracer. The zero value is usable: default ring
// sizes, no sampling, no slow-query threshold — only explicitly
// requested traces are recorded.
type Config struct {
	// BufferSize is the recent-trace ring capacity. Zero selects
	// DefaultBufferSize; negative disables retention (explicit traces
	// are still built and returned inline, just not kept).
	BufferSize int
	// SlowBufferSize is the slow-query ring capacity. Zero selects
	// DefaultSlowBufferSize; negative disables it.
	SlowBufferSize int
	// SampleEvery records every Nth query trace into the recent ring
	// (1 = every query). Zero disables sampling.
	SampleEvery int
	// SlowThreshold, when positive, traces every query and retains the
	// trace in the slow ring if the query ran at least this long.
	SlowThreshold time.Duration
	// OnSlow, when non-nil, is invoked synchronously with each trace
	// that crossed SlowThreshold (the server wires it to the structured
	// slow-query log).
	OnSlow func(*Trace)
	// Exporter, when non-nil, receives every retained trace as it is
	// finished (ctdbd wires it to the -trace-export file or OTLP
	// endpoint). Called synchronously; exporters that do I/O should
	// hand off to their own goroutine.
	Exporter func(*Trace)
}

// Default ring capacities.
const (
	DefaultBufferSize     = 256
	DefaultSlowBufferSize = 64
)

// Tracer owns the sampling decision and the trace rings. All methods
// are safe for concurrent use and safe on a nil *Tracer (no-ops).
type Tracer struct {
	cfg     Config
	counter atomic.Uint64
	recent  *ring
	slow    *ring
}

// New returns a Tracer for the configuration.
func New(cfg Config) *Tracer {
	recent, slowN := cfg.BufferSize, cfg.SlowBufferSize
	if recent == 0 {
		recent = DefaultBufferSize
	}
	if slowN == 0 {
		slowN = DefaultSlowBufferSize
	}
	return &Tracer{cfg: cfg, recent: newRing(recent), slow: newRing(slowN)}
}

// SlowThreshold returns the configured slow-query threshold.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.SlowThreshold
}

// start builds an in-flight trace rooted at a span covering the whole
// operation and returns a context carrying that root span. A valid
// link makes the trace continue the linked one: same trace ID, parent
// span recorded for export-time stitching.
func (t *Tracer) start(ctx context.Context, name, query, requestID string, link SpanContext) (context.Context, *Trace) {
	now := time.Now()
	id := link.TraceID
	if id == "" {
		id = NewTraceID()
	}
	root := &Span{Name: name, SpanID: rand.Uint64(), epoch: now, start: now, traceID: id}
	tr := &Trace{
		ID:          id,
		Name:        name,
		Query:       query,
		RequestID:   requestID,
		ParentSpan:  link.SpanID,
		StartUnixUS: now.UnixMicro(),
		Root:        root,
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey, root), tr
}

// StartQuery decides whether this query is traced and, if so, returns
// a context whose active span is the trace's root. force (the per-
// request trace knob) always traces; otherwise the 1-in-N sampler
// applies, and a configured slow-query threshold traces speculatively
// so a slow query's full tree can be retained after the fact. The
// returned trace is nil when the query is not traced; pass whatever is
// returned to Finish.
func (t *Tracer) StartQuery(ctx context.Context, query, requestID string, force bool) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	// An inbound traceparent with the sampled flag is an explicit
	// request to trace, same as the HTTP "trace": true knob — the
	// caller is already recording its half of the story.
	link := Remote(ctx)
	if link.Valid() && link.Sampled {
		force = true
	}
	sampled := force || (t.cfg.SampleEvery > 0 && t.counter.Add(1)%uint64(t.cfg.SampleEvery) == 0)
	if !sampled && t.cfg.SlowThreshold <= 0 {
		return ctx, nil
	}
	if !link.Valid() {
		link = SpanContext{}
	}
	ctx, tr := t.start(ctx, "query", query, requestID, link)
	tr.sampled = sampled
	tr.isQuery = true
	return ctx, tr
}

// Start begins an always-recorded trace for a non-query operation
// (checkpoint, recovery). These are rare enough that sampling does not
// apply. An inbound remote span context (traceparent) is adopted.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Trace) {
	if t == nil {
		return ctx, nil
	}
	link := Remote(ctx)
	if !link.Valid() {
		link = SpanContext{}
	}
	ctx, tr := t.start(ctx, name, "", RequestID(ctx), link)
	tr.sampled = true
	return ctx, tr
}

// StartLinked begins an always-recorded trace that continues work
// started elsewhere in this process: an asynchronous stage (a stream
// apply) whose originating request has already returned. The new trace adopts the link's trace ID and records the
// originating span as its parent, so GET /v1/traces/{id} and the OTLP
// export stitch the stage back under the request that caused it.
// Returns (ctx, nil) — tracing off for this stage — when the tracer is
// nil or the link is invalid; callers capture links with
// SpanContextFrom, which yields an invalid link on untraced requests,
// making the whole chain free when tracing is off.
func (t *Tracer) StartLinked(ctx context.Context, name string, link SpanContext) (context.Context, *Trace) {
	if t == nil || !link.Valid() {
		return ctx, nil
	}
	ctx, tr := t.start(ctx, name, "", "", link)
	tr.sampled = true
	return ctx, tr
}

// Finish seals the trace and routes it: into the slow ring (and OnSlow
// hook) if it crossed the threshold, into the recent ring if it was
// sampled or explicitly requested. A trace that was built only on
// slow-query speculation and came in under the threshold is discarded.
// Maintenance traces (Start: recovery, checkpoint) are exempt from
// slow-query classification — a slow checkpoint is not a slow query.
// Safe with a nil tracer or nil trace.
func (t *Tracer) Finish(tr *Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.Root.End()
	tr.DurUS = tr.Root.DurUS
	if th := t.cfg.SlowThreshold; tr.isQuery && th > 0 && tr.DurUS >= th.Microseconds() {
		tr.Slow = true
		t.slow.put(tr)
		if t.cfg.OnSlow != nil {
			t.cfg.OnSlow(tr)
		}
	}
	if tr.sampled {
		t.recent.put(tr)
	}
	if t.cfg.Exporter != nil && (tr.sampled || tr.Slow) {
		t.cfg.Exporter(tr)
	}
}

// ByID returns every retained trace sharing the trace ID, newest
// first: the request's own trace plus any linked asynchronous stages
// (stream applies) that adopted its ID.
func (t *Tracer) ByID(id string) []*Trace {
	if t == nil {
		return nil
	}
	seen := make(map[*Trace]bool)
	var out []*Trace
	for _, tr := range append(t.recent.snapshot(), t.slow.snapshot()...) {
		if tr.ID == id && !seen[tr] {
			seen[tr] = true
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUnixUS > out[j].StartUnixUS })
	return out
}

// Recent returns the retained traces, newest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	return t.recent.snapshot()
}

// Slow returns the retained slow-query traces, newest first.
func (t *Tracer) Slow() []*Trace {
	if t == nil {
		return nil
	}
	return t.slow.snapshot()
}

// Pretty renders the span tree as an indented text diagram, the format
// ctdb query -explain prints:
//
//	query 1.8ms (t-0123…, req-4567…)
//	├─ parse 12µs
//	├─ translate 310µs states=14
//	└─ scan 1.4ms checked=37 matched=5
//	   ├─ check 210µs contract=contract-3 permits=true
//	   …
func (tr *Trace) Pretty() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s (%s", tr.Name, fmtUS(tr.DurUS), tr.ID)
	if tr.RequestID != "" {
		fmt.Fprintf(&b, ", %s", tr.RequestID)
	}
	b.WriteString(")")
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
