// Package server exposes a contract database over HTTP/JSON — the
// "brokering system" deployment the paper envisions: providers
// register contracts, consumers run temporal queries, both against a
// long-lived indexed database.
//
// Endpoints:
//
//	GET  /v1/health              liveness, database size, recovery state
//	GET  /v1/contracts           list registered contracts
//	GET  /v1/contracts/{name}    one contract's spec and automaton stats
//	POST /v1/contracts           register {"name": ..., "spec": ...}
//	DELETE /v1/contracts/{name}  unregister a contract
//	POST /v1/query               evaluate {"spec": ..., "mode": "opt"|"scan", ...}
//	POST /v1/checkpoint          force a durability checkpoint (501 without a store)
//	GET  /v1/metrics             per-stage query metrics and registration costs (JSON)
//	GET  /v1/traces              recent query traces (sampled or requested)
//	GET  /v1/traces/slow         queries that crossed the slow-query threshold
//	GET  /v1/traces/{id}         every retained trace with that ID
//	GET  /v1/querylog            query insights log tail (501 when disabled)
//	GET  /v1/debug/bundle        one-shot .tar.gz diagnostic bundle
//	GET  /metrics                /v1/metrics in the Prometheus text format
//
// With streaming enabled (see Streams and internal/stream):
//
//	POST   /v1/streams                  open a monitored stream
//	GET    /v1/streams                  list open streams
//	GET    /v1/streams/{name}           one stream's statuses
//	DELETE /v1/streams/{name}           close a stream
//	POST   /v1/streams/{name}/events    push an event batch
//	GET    /v1/streams/{name}/verdicts  long-poll or SSE-tail verdicts
//
// All request and response bodies are JSON (except /metrics, which
// speaks the Prometheus text format). Registration is serialized by
// the engine; queries run concurrently.
//
// Every request is assigned a request ID — the X-Request-ID header
// when the client sends one, a generated "req-…" otherwise — echoed
// in the response header, stamped into error envelopes and query
// traces, and logged by the structured request log when a Logger is
// configured. Setting "trace": true on POST /v1/query returns the
// query's full span tree inline with the response.
//
// Query evaluation respects the request context: a client that
// disconnects or times out aborts the search mid-expansion (HTTP 408
// if the response can still be written), and a kernel step budget —
// per request or the server-wide default — turns a worst-case-hard
// search into a prompt 503 instead of a hung connection.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/insights"
	"contractdb/internal/ltl"
	"contractdb/internal/metrics"
	"contractdb/internal/stream"
	"contractdb/internal/trace"
	"contractdb/internal/vocab"
)

// DB is the database surface the server needs: the scatter-gather
// *shard.DB satisfies it at every shard count. The server depends on
// the interface only, so it needs no import of the shard package.
type DB interface {
	Len() int
	Vocabulary() *vocab.Vocabulary
	Contracts() []*core.Contract
	ByName(name string) (*core.Contract, bool)
	RegisterLTLCtx(ctx context.Context, name, src string) (*core.Contract, error)
	RegisterBatch(specs []core.Registration, workers int) []core.BatchResult
	Unregister(name string) error
	QueryModeCtx(ctx context.Context, spec *ltl.Expr, mode core.Mode) (*core.Result, error)
	Stats() core.DBStats
	NumShards() int
	ShardSizes() []int
	ShardEpochs() []uint64
	RouterSnapshot() metrics.ShardRouterSnapshot
}

// Server wires a database to an http.Handler. Create with New; the
// zero value is not usable.
type Server struct {
	db  DB
	mux *http.ServeMux
	// QueryTimeout, when positive, bounds every query evaluation in
	// addition to the client's own context.
	QueryTimeout time.Duration
	// StepBudget is the default kernel step budget applied to queries
	// that do not set their own; zero is unlimited.
	StepBudget int
	// Checkpoint, when non-nil, backs POST /v1/checkpoint; it returns
	// the new snapshot boundary. Left nil (no durable store) the
	// endpoint answers 501.
	Checkpoint func() (uint64, error)
	// Durability, when non-nil, is folded into /v1/metrics.
	Durability *metrics.Durability
	// Tracer decides which queries get a span tree and retains the
	// finished traces for /v1/traces. New installs a default (no
	// sampling — only the per-request "trace": true knob records), so
	// tracing works without daemon wiring; replace it before serving to
	// change sampling or the slow-query threshold.
	Tracer *trace.Tracer
	// Logger, when non-nil, receives one structured record per request
	// (request_id, method, path, status, duration, bytes).
	Logger *slog.Logger
	// Recovery, when non-nil, is reported by GET /v1/health; the daemon
	// fills it from the store's RecoveryInfo.
	Recovery *RecoveryState
	// Streams, when non-nil, backs the /v1/streams endpoints (live
	// compliance monitoring). Left nil they answer 501.
	Streams *stream.Broker
	// Insights, when non-nil and enabled, receives one structured
	// query-log entry per POST /v1/query and backs GET /v1/querylog.
	// Left nil (or disabled) the handler path stays allocation-free.
	Insights *insights.Log

	start time.Time
}

// New returns a server for the database.
func New(db DB) *Server {
	s := &Server{
		db:     db,
		mux:    http.NewServeMux(),
		Tracer: trace.New(trace.Config{}),
		start:  time.Now(),
	}
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /v1/contracts", s.handleList)
	s.mux.HandleFunc("GET /v1/contracts/{name}", s.handleGet)
	s.mux.HandleFunc("POST /v1/contracts", s.handleRegister)
	s.mux.HandleFunc("POST /v1/contracts/bulk", s.handleRegisterBulk)
	s.mux.HandleFunc("DELETE /v1/contracts/{name}", s.handleUnregister)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/traces/slow", s.handleSlowTraces)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceByID)
	s.mux.HandleFunc("GET /v1/querylog", s.handleQueryLog)
	s.mux.HandleFunc("GET /v1/debug/bundle", s.handleDebugBundle)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	s.registerStreamRoutes()
	return s
}

// ServeHTTP implements http.Handler: assign (or adopt) the request ID,
// adopt an inbound W3C traceparent, dispatch, and emit one structured
// log record when a Logger is set. A valid traceparent is echoed on the
// response so callers can correlate even on endpoints that start no
// span of their own; handlers that do start one (POST /v1/query)
// overwrite the echo with their root span's identity.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = trace.NewRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	r = r.WithContext(trace.WithRequestID(r.Context(), id))
	if sc, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		r = r.WithContext(trace.WithRemote(r.Context(), sc))
		w.Header().Set("Traceparent", sc.Traceparent())
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	if s.Logger != nil {
		s.Logger.Info("request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_us", time.Since(start).Microseconds(),
			"bytes", sw.bytes,
		)
	}
}

// statusWriter captures the status code and body size for the request
// log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer so SSE responses stream through
// the request-logging middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) uptime() float64 {
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start).Seconds()
}

// Error is the JSON error envelope.
type Error struct {
	Error string `json:"error"`
	// RequestID identifies the failed request in the structured log and
	// trace rings.
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures after the header is out can only be logged by
	// the caller's middleware; the payloads here are plain structs.
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, status, Error{Error: err.Error(), RequestID: trace.RequestID(r.Context())})
}

// HealthResponse reports liveness, database size, uptime, and — when
// the server fronts a durable store — what recovery did at open.
type HealthResponse struct {
	Status        string  `json:"status"`
	Contracts     int     `json:"contracts"`
	Events        int     `json:"events"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Shards is the scatter-gather shard count.
	Shards   int            `json:"shards"`
	Recovery *RecoveryState `json:"recovery,omitempty"`
	// Streams reports the streaming subsystem's backlog and journal lag;
	// absent when streaming is disabled.
	Streams *StreamsHealth `json:"streams,omitempty"`
}

// StreamsHealth is the health view of the stream broker: how far ingest
// is behind its producers and how much journal would replay on a crash.
type StreamsHealth struct {
	Active int `json:"active"`
	// PendingBatches is the event batches accepted but not yet applied,
	// summed across ingest shards.
	PendingBatches int `json:"pending_batches"`
	// Journal is the WAL's checkpoint lag (records since the last
	// checkpoint, segment count, age of the active segment); absent for
	// an in-memory broker.
	Journal *stream.JournalStats `json:"journal,omitempty"`
}

// RecoveryState mirrors store.RecoveryInfo for the wire (the server
// package does not import the store).
type RecoveryState struct {
	Clean            bool     `json:"clean"`
	SnapshotSeq      uint64   `json:"snapshot_seq"`
	SnapshotPath     string   `json:"snapshot_path,omitempty"`
	SkippedSnapshots []string `json:"skipped_snapshots,omitempty"`
	ReplayedRecords  int      `json:"replayed_records"`
	TruncatedBytes   int64    `json:"truncated_bytes"`
	DurationUS       int64    `json:"duration_us"`

	// Cold-start breakdown: where the recovery time went and how much
	// re-derivation the persisted artifacts avoided (formatVersion 3
	// restores compiled automata instead of re-flattening them).
	SnapshotFormat    int   `json:"snapshot_format,omitempty"`
	SnapshotDecodeUS  int64 `json:"snapshot_decode_us"`
	ArtifactRestoreUS int64 `json:"artifact_restore_us"`
	WALReplayUS       int64 `json:"wal_replay_us"`
	CompiledAdopted   int   `json:"compiled_adopted"`

	// Load mechanics: how the snapshot's slab bytes entered memory.
	// MappedBytes counts slabs adopted zero-copy from a private file
	// mapping (paged in on demand); CopiedBytes counts slabs
	// materialized on the heap — everything when the mapping fell
	// back (MmapFallback says why), or just the int-width-converted
	// sections on exotic hosts.
	MappedBytes  int64  `json:"mapped_bytes"`
	CopiedBytes  int64  `json:"copied_bytes"`
	Sections     int    `json:"sections,omitempty"`
	MmapFallback string `json:"mmap_fallback,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.healthResponse())
}

// ContractInfo describes one registered contract.
type ContractInfo struct {
	Name        string   `json:"name"`
	Spec        string   `json:"spec,omitempty"`
	States      int      `json:"states"`
	Transitions int      `json:"transitions"`
	Events      []string `json:"events"`
}

func (s *Server) contractInfo(c *core.Contract, includeSpec bool) ContractInfo {
	voc := s.db.Vocabulary()
	var events []string
	for _, id := range c.Events().IDs() {
		events = append(events, voc.Name(id))
	}
	info := ContractInfo{
		Name:        c.Name,
		States:      c.Automaton().NumStates(),
		Transitions: c.Automaton().NumEdges(),
		Events:      events,
	}
	if includeSpec {
		info.Spec = c.Spec.String()
	}
	return info
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	contracts := s.db.Contracts()
	out := make([]ContractInfo, 0, len(contracts))
	for _, c := range contracts {
		out = append(out, s.contractInfo(c, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	c, ok := s.db.ByName(name)
	if !ok {
		writeErr(w, r, http.StatusNotFound, fmt.Errorf("no contract named %q", name))
		return
	}
	writeJSON(w, http.StatusOK, s.contractInfo(c, true))
}

// RegisterRequest registers one contract.
type RegisterRequest struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if strings.TrimSpace(req.Spec) == "" {
		writeErr(w, r, http.StatusBadRequest, errors.New("spec is required"))
		return
	}
	// A sampled inbound traceparent traces the registration under the
	// caller's trace ID; its span records the projection precompute.
	ctx := r.Context()
	var tr *trace.Trace
	if link := trace.Remote(ctx); link.Valid() && link.Sampled {
		ctx, tr = s.Tracer.Start(ctx, "register")
		if sp := trace.SpanFrom(ctx); sp != nil {
			sp.SetAttr("contract", req.Name)
		}
	}
	c, err := s.db.RegisterLTLCtx(ctx, req.Name, req.Spec)
	s.Tracer.Finish(tr)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, core.ErrDurability):
			status = http.StatusInternalServerError
		case errors.Is(err, core.ErrDuplicateName):
			status = http.StatusConflict
		}
		writeErr(w, r, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.contractInfo(c, true))
}

// BulkRegisterRequest registers many contracts in one call. The batch
// is deduplicated structurally (identical specs share one translation
// and one projection lattice) and the expensive per-contract work runs
// on a worker pool; see core.DB.RegisterBatch.
type BulkRegisterRequest struct {
	Contracts []RegisterRequest `json:"contracts"`
	// Workers sizes the batch worker pool; 0 selects GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
}

// BulkRegisterResult is one entry's outcome, in input order.
type BulkRegisterResult struct {
	Name  string `json:"name,omitempty"`
	Error string `json:"error,omitempty"`
}

// BulkRegisterResponse summarizes a bulk registration.
type BulkRegisterResponse struct {
	Registered int                  `json:"registered"`
	Failed     int                  `json:"failed"`
	Results    []BulkRegisterResult `json:"results"`
}

func (s *Server) handleRegisterBulk(w http.ResponseWriter, r *http.Request) {
	var req BulkRegisterRequest
	if err := decodeBodyN(r, &req, 64<<20); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if len(req.Contracts) == 0 {
		writeErr(w, r, http.StatusBadRequest, errors.New("contracts is required"))
		return
	}
	specs := make([]core.Registration, len(req.Contracts))
	for i, c := range req.Contracts {
		if strings.TrimSpace(c.Spec) == "" {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("contracts[%d]: spec is required", i))
			return
		}
		spec, err := ltl.Parse(c.Spec)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("contracts[%d]: %w", i, err))
			return
		}
		specs[i] = core.Registration{Name: c.Name, Spec: spec}
	}
	results := s.db.RegisterBatch(specs, req.Workers)
	resp := BulkRegisterResponse{Results: make([]BulkRegisterResult, len(results))}
	for i, res := range results {
		if res.Err != nil {
			resp.Failed++
			resp.Results[i] = BulkRegisterResult{Error: res.Err.Error()}
			continue
		}
		resp.Registered++
		resp.Results[i] = BulkRegisterResult{Name: res.Contract.Name}
	}
	status := http.StatusCreated
	if resp.Registered == 0 {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.db.Unregister(name); err != nil {
		switch {
		case errors.Is(err, core.ErrNotFound):
			writeErr(w, r, http.StatusNotFound, err)
		case errors.Is(err, core.ErrDurability):
			writeErr(w, r, http.StatusInternalServerError, err)
		default:
			writeErr(w, r, http.StatusBadRequest, err)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// CheckpointResponse reports where the forced checkpoint landed: every
// operation with sequence below Boundary is now covered by a fsynced
// snapshot.
type CheckpointResponse struct {
	Boundary uint64 `json:"boundary"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.Checkpoint == nil {
		writeErr(w, r, http.StatusNotImplemented, errors.New("no durable store configured (start ctdbd with -data-dir)"))
		return
	}
	boundary, err := s.Checkpoint()
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Boundary: boundary})
}

// QueryRequest evaluates one temporal query.
type QueryRequest struct {
	Spec string `json:"spec"`
	// Mode selects "opt" (default: both indexes) or "scan".
	Mode string `json:"mode,omitempty"`
	// FindAny stops at the first permitting contract instead of
	// collecting all of them.
	FindAny bool `json:"find_any,omitempty"`
	// StepBudget caps each candidate check's kernel steps; 0 uses the
	// server default, -1 forces unlimited.
	StepBudget int `json:"step_budget,omitempty"`
	// NoCache bypasses the query-compilation and result caches for
	// this evaluation — measurement runs use it so reported latencies
	// are always cold.
	NoCache bool `json:"no_cache,omitempty"`
	// Trace forces a full span tree for this evaluation, returned
	// inline with the response (the explain knob).
	Trace bool `json:"trace,omitempty"`
}

// QueryResponse lists the permitting contracts plus evaluation
// statistics.
type QueryResponse struct {
	Matches    []string `json:"matches"`
	Total      int      `json:"total"`
	Candidates int      `json:"candidates"`
	ElapsedUS  int64    `json:"elapsed_us"`
	// Cached reports the answer was served from the result cache;
	// Candidates and ElapsedUS then describe the cached serve, not a
	// fresh scan.
	Cached bool `json:"cached,omitempty"`
	// RequestID echoes the request's identifier (X-Request-ID or
	// generated).
	RequestID string `json:"request_id,omitempty"`
	// Trace is the evaluation's span tree, present when the request set
	// "trace": true.
	Trace *trace.Trace `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	requestID := trace.RequestID(ctx)
	if s.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.QueryTimeout)
		defer cancel()
	}
	// From here every return path must Finish the trace (it may be nil;
	// Finish on a nil trace is a no-op). Finish happens before the
	// response is written so an inline trace is complete and immutable.
	ctx, tr := s.Tracer.StartQuery(ctx, req.Spec, requestID, req.Trace)
	if sc := trace.SpanContextFrom(ctx); sc.Valid() {
		w.Header().Set("Traceparent", sc.Traceparent())
	}

	_, psp := trace.StartSpan(ctx, "parse")
	spec, err := ltl.Parse(req.Spec)
	psp.SetError(err)
	psp.End()
	if err != nil {
		s.Tracer.Finish(tr)
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	mode := core.Optimized
	switch req.Mode {
	case "", "opt":
	case "scan":
		mode = core.Unoptimized
	default:
		s.Tracer.Finish(tr)
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("unknown mode %q", req.Mode))
		return
	}
	mode.FindAny = req.FindAny
	mode.NoCache = req.NoCache
	switch {
	case req.StepBudget > 0:
		mode.StepBudget = req.StepBudget
	case req.StepBudget == 0:
		mode.StepBudget = s.StepBudget
	}
	evalStart := time.Now()
	res, err := s.db.QueryModeCtx(ctx, spec, mode)
	s.Tracer.Finish(tr)
	if s.Insights.Enabled() {
		s.recordInsight(&req, requestID, tr, evalStart, res, err)
	}
	if err != nil {
		switch {
		case errors.Is(err, core.ErrBudgetExceeded):
			writeErr(w, r, http.StatusServiceUnavailable, err)
		case errors.Is(err, core.ErrCanceled):
			// If the client is gone the write is moot; for a server-side
			// timeout it reports why the query was cut short.
			writeErr(w, r, http.StatusRequestTimeout, err)
		default:
			writeErr(w, r, http.StatusBadRequest, err)
		}
		return
	}
	out := QueryResponse{
		Matches:    make([]string, 0, len(res.Matches)),
		Total:      res.Stats.Total,
		Candidates: res.Stats.Candidates,
		ElapsedUS:  res.Stats.Elapsed().Microseconds(),
		Cached:     res.Stats.CacheHit,
		RequestID:  requestID,
	}
	if req.Trace {
		out.Trace = tr
	}
	for _, c := range res.Matches {
		out.Matches = append(out.Matches, c.Name)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	traces := s.Tracer.Recent()
	if traces == nil {
		traces = []*trace.Trace{}
	}
	writeJSON(w, http.StatusOK, traces)
}

func (s *Server) handleSlowTraces(w http.ResponseWriter, _ *http.Request) {
	traces := s.Tracer.Slow()
	if traces == nil {
		traces = []*trace.Trace{}
	}
	writeJSON(w, http.StatusOK, traces)
}

// handleTraceByID serves every retained trace sharing one trace ID —
// the request's own trace plus linked asynchronous stages (stream
// applies), each linked root naming its parent span.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	traces := s.Tracer.ByID(id)
	if len(traces) == 0 {
		writeErr(w, r, http.StatusNotFound, fmt.Errorf("no retained trace with id %q", id))
		return
	}
	writeJSON(w, http.StatusOK, traces)
}

// handleQueryLog serves the insights log's retained entries, newest
// first; ?n= bounds the count (default 100).
func (s *Server) handleQueryLog(w http.ResponseWriter, r *http.Request) {
	if !s.Insights.Enabled() {
		writeErr(w, r, http.StatusNotImplemented, errors.New("query insights log is not enabled (start ctdbd with -querylog-sample)"))
		return
	}
	n := 100
	if v := r.URL.Query().Get("n"); v != "" {
		i, err := strconv.Atoi(v)
		if err != nil || i <= 0 {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		n = i
	}
	entries := s.Insights.Recent(n)
	if entries == nil {
		entries = []*insights.Entry{}
	}
	writeJSON(w, http.StatusOK, entries)
}

// recordInsight assembles one insights entry from a finished query
// evaluation. Callers guard with Insights.Enabled() so the disabled
// path never reaches entry assembly.
func (s *Server) recordInsight(req *QueryRequest, requestID string, tr *trace.Trace, start time.Time, res *core.Result, err error) {
	e := insights.Entry{
		RequestID:   requestID,
		Query:       req.Spec,
		Mode:        req.Mode,
		StartUnixUS: start.UnixMicro(),
		DurUS:       time.Since(start).Microseconds(),
	}
	if e.Mode == "" {
		e.Mode = "opt"
	}
	if tr != nil {
		e.TraceID = tr.ID
	}
	switch {
	case err == nil && res != nil && len(res.Matches) > 0:
		e.Verdict = "matches"
		e.Matches = len(res.Matches)
	case err == nil:
		e.Verdict = "empty"
	case errors.Is(err, core.ErrCanceled):
		e.Verdict = "timeout"
		e.Error = err.Error()
	default:
		e.Verdict = "error"
		e.Error = err.Error()
	}
	if res != nil {
		st := res.Stats
		e.Corpus = st.Total
		e.Candidates = st.Candidates
		e.Checked = st.Checked
		if st.Total > 0 {
			e.Selectivity = float64(st.Candidates) / float64(st.Total)
		}
		switch {
		case st.CacheHit:
			e.CacheTier = "result"
		case st.CompileHit:
			e.CacheTier = "compiled"
		default:
			e.CacheTier = "miss"
		}
		e.TranslateUS = st.Translate.Microseconds()
		e.FilterUS = st.Filter.Microseconds()
		e.CheckUS = st.Check.Microseconds()
		if len(st.Shards) > 0 {
			e.Shards = make([]insights.ShardStat, len(st.Shards))
			for i, ps := range st.Shards {
				e.Shards[i] = insights.ShardStat{
					Shard:      ps.Shard,
					DurUS:      ps.Dur.Microseconds(),
					Candidates: ps.Candidates,
					Checked:    ps.Checked,
					Steps:      ps.Steps,
					Cached:     ps.Cached,
				}
			}
		}
	} else {
		e.CacheTier = "miss"
	}
	s.Insights.Record(&e)
}

// MetricsResponse is the /v1/metrics payload: the engine's per-stage
// query metrics plus the registration costs, all cheap enough to poll
// from a scraper. It is the one telemetry registry: GET /metrics
// renders this same value (see metrics.WritePrometheus).
type MetricsResponse struct {
	Contracts        int   `json:"contracts"`
	VocabularyEvents int   `json:"vocabulary_events"`
	ProjectionRows   int   `json:"projection_rows"`
	IndexNodes       int   `json:"index_nodes"`
	IndexBytes       int   `json:"index_bytes"`
	RegistrationMS   int64 `json:"registration_ms"`
	IndexBuildMS     int64 `json:"index_build_ms"`
	ProjectionsMS    int64 `json:"projections_ms"`
	// Translations counts LTL→BA translations performed by this process
	// (zero after a pure snapshot load).
	Translations  int64                 `json:"translations"`
	UptimeSeconds float64               `json:"uptime_seconds"`
	Build         BuildInfo             `json:"build"`
	Queries       metrics.QuerySnapshot `json:"queries"`
	Caches        CacheMetrics          `json:"caches"`
	// Sharding is the scatter-gather engine's shape and router
	// counters.
	Sharding ShardingInfo `json:"sharding"`
	// Durability is present only when the server fronts a durable
	// store (WAL + checkpoints).
	Durability *metrics.DurabilitySnapshot `json:"durability,omitempty"`
	// Streams is present only when the streaming-monitor subsystem is
	// enabled.
	Streams *StreamMetrics `json:"streams,omitempty"`
}

// StreamMetrics combines the stream broker's monotone counters with
// its point-in-time gauges.
type StreamMetrics struct {
	metrics.StreamSnapshot
	Gauges metrics.StreamGauges `json:"gauges"`
}

// ShardingInfo reports the sharded engine's shape and router counters:
// per-shard contract counts and epochs, plus scatter/merge timings and
// cache-hit composition across shards.
type ShardingInfo struct {
	Shards int                         `json:"shards"`
	Sizes  []int                       `json:"sizes"`
	Epochs []uint64                    `json:"epochs"`
	Router metrics.ShardRouterSnapshot `json:"router"`
}

// BuildInfo identifies the serving binary: the Go toolchain it was
// built with and the snapshot format it writes.
type BuildInfo struct {
	GoVersion             string `json:"go_version"`
	SnapshotFormatVersion int    `json:"snapshot_format_version"`
}

// CacheMetrics reports the query caches' occupancy gauges and the
// registration epoch that gates result-cache validity. The hit/miss/
// eviction counters live under Queries.
type CacheMetrics struct {
	Epoch          uint64 `json:"epoch"`
	QueryCacheLen  int    `json:"query_cache_len"`
	QueryCacheCap  int    `json:"query_cache_cap"`
	ResultCacheLen int    `json:"result_cache_len"`
	ResultCacheCap int    `json:"result_cache_cap"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsResponse())
}

// metricsResponse builds the /v1/metrics payload (shared with the
// debug bundle).
func (s *Server) metricsResponse() MetricsResponse {
	st := s.db.Stats()
	rs := st.Registration
	var durability *metrics.DurabilitySnapshot
	if s.Durability != nil {
		snap := s.Durability.Snapshot()
		durability = &snap
	}
	var streams *StreamMetrics
	if s.Streams != nil {
		streams = &StreamMetrics{
			StreamSnapshot: s.Streams.Metrics().Snapshot(),
			Gauges:         s.Streams.Gauges(),
		}
	}
	return MetricsResponse{
		Sharding: ShardingInfo{
			Shards: s.db.NumShards(),
			Sizes:  s.db.ShardSizes(),
			Epochs: s.db.ShardEpochs(),
			Router: s.db.RouterSnapshot(),
		},
		Durability:       durability,
		Streams:          streams,
		Contracts:        rs.Contracts,
		VocabularyEvents: s.db.Vocabulary().Len(),
		ProjectionRows:   rs.ProjectionRows,
		IndexNodes:       rs.IndexNodes,
		IndexBytes:       rs.IndexBytes,
		RegistrationMS:   rs.Total.Milliseconds(),
		IndexBuildMS:     rs.IndexBuild.Milliseconds(),
		ProjectionsMS:    rs.Projections.Milliseconds(),
		Translations:     rs.Translations,
		UptimeSeconds:    s.uptime(),
		Build: BuildInfo{
			GoVersion:             runtime.Version(),
			SnapshotFormatVersion: core.SnapshotFormatVersion(),
		},
		Queries: st.Queries,
		Caches: CacheMetrics{
			Epoch:          st.Caches.Epoch,
			QueryCacheLen:  st.Caches.QueryCacheLen,
			QueryCacheCap:  st.Caches.QueryCacheCap,
			ResultCacheLen: st.Caches.ResultCacheLen,
			ResultCacheCap: st.Caches.ResultCacheCap,
		},
	}
}

// handlePrometheus serves GET /metrics: the /v1/metrics payload plus
// the Go runtime gauges in the Prometheus text exposition format.
func (s *Server) handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A failed write means the scraper went away; nothing is left to
	// report to it.
	_ = metrics.WritePrometheus(w, s.metricsResponse())
}

func decodeBody(r *http.Request, v any) error {
	return decodeBodyN(r, v, 1<<20)
}

func decodeBodyN(r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}
