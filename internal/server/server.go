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
//	POST /v1/contracts/bulk      register many {"contracts": [...]} (201 if any registered)
//	DELETE /v1/contracts/{name}  unregister a contract
//	POST /v1/query               evaluate {"spec": ..., "mode": "opt"|"scan", ...}
//	POST /v1/checkpoint          force a durability checkpoint (501 without a store)
//	GET  /v1/metrics             per-stage query metrics and registration costs (JSON)
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
// in the response header and stamped into error envelopes, inline
// traces, query-log entries and the structured request and slow-query
// log lines, so it joins every record of one request. Setting
// "trace": true on POST /v1/query returns the query's full span tree
// inline with the response; no trace is kept after it is returned.
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
	"slices"
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

// DB is the database surface the server needs; *core.DB satisfies
// it. The server depends on the interface only, so a caller can wrap
// the database (to time it, say) before serving it.
type DB interface {
	Len() int
	Vocabulary() *vocab.Vocabulary
	Contracts() []*core.Contract
	ByName(name string) (*core.Contract, bool)
	RegisterLTLCtx(ctx context.Context, name, src string) (*core.Contract, error)
	RegisterBatch(ctx context.Context, specs []core.Registration, workers int) []core.BatchResult
	Unregister(name string) error
	QueryModeCtx(ctx context.Context, spec *ltl.Expr, mode core.Mode) (*core.Result, error)
	Stats() core.DBStats
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
	// Logger, when non-nil, receives one structured record per request
	// (request_id, method, path, status, duration, bytes) and one
	// "slow query" record per query at least SlowQuery slow.
	Logger *slog.Logger
	// SlowQuery, when positive, is the slow-query threshold: a query
	// whose handler ran at least this long (decode and parse included)
	// is logged as "slow query" and marked Slow in the query log, which
	// always keeps it.
	SlowQuery time.Duration
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
		db:    db,
		mux:   http.NewServeMux(),
		start: time.Now(),
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
	s.mux.HandleFunc("GET /v1/querylog", s.handleQueryLog)
	s.mux.HandleFunc("GET /v1/debug/bundle", s.handleDebugBundle)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	s.registerStreamRoutes()
	return s
}

// ServeHTTP implements http.Handler: assign (or adopt) the request ID,
// dispatch, and emit one structured log record when a Logger is set.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get("X-Request-ID")
	if id == "" {
		id = trace.NewRequestID()
	}
	w.Header().Set("X-Request-ID", id)
	r = r.WithContext(trace.WithRequestID(r.Context(), id))
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
	// RequestID identifies the failed request in the structured log.
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
	Status        string         `json:"status"`
	Contracts     int            `json:"contracts"`
	Events        int            `json:"events"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Recovery      *RecoveryState `json:"recovery,omitempty"`
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
	// back (MmapFallback says why), or just a v4 file's int64 classes
	// section, narrowed to int32.
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
	slices.SortFunc(contracts, byName)
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
	if !decodeBody(w, r, &req) {
		return
	}
	if strings.TrimSpace(req.Spec) == "" {
		writeErr(w, r, http.StatusBadRequest, errors.New("spec is required"))
		return
	}
	c, err := s.db.RegisterLTLCtx(r.Context(), req.Name, req.Spec)
	if err != nil {
		writeErr(w, r, registerStatus(err), err)
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
	if !decodeBodyN(w, r, &req, 64<<20) {
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
	results := s.db.RegisterBatch(r.Context(), specs, req.Workers)
	resp := BulkRegisterResponse{Results: make([]BulkRegisterResult, len(results))}
	// failedAs tallies the failed entries by the status each would
	// get on its own.
	failedAs := map[int]int{}
	for i, res := range results {
		if res.Err != nil {
			resp.Failed++
			resp.Results[i] = BulkRegisterResult{Error: res.Err.Error()}
			failedAs[registerStatus(res.Err)]++
			continue
		}
		resp.Registered++
		resp.Results[i] = BulkRegisterResult{Name: res.Contract.Name}
	}
	// With nothing registered the status says why: 500 if any entry hit
	// a durability failure, 409 if every entry was a duplicate, 400
	// otherwise.
	status := http.StatusBadRequest
	switch {
	case resp.Registered > 0:
		status = http.StatusCreated
	case failedAs[http.StatusInternalServerError] > 0:
		status = http.StatusInternalServerError
	case failedAs[http.StatusConflict] == resp.Failed:
		status = http.StatusConflict
	}
	writeJSON(w, status, resp)
}

// registerStatus maps a registration error to its HTTP status: a
// failed log append is the server's fault (500), a taken name a
// conflict (409), a translation cut short by the request's context a
// timeout (408), anything else a bad request (400).
func registerStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrDurability):
		return http.StatusInternalServerError
	case errors.Is(err, core.ErrDuplicateName):
		return http.StatusConflict
	case errors.Is(err, core.ErrCanceled):
		return http.StatusRequestTimeout
	}
	return http.StatusBadRequest
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
	// NoCache bypasses the query-compilation cache for this
	// evaluation — measurement runs use it so reported latencies are
	// always cold.
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
	// RequestID echoes the request's identifier (X-Request-ID or
	// generated).
	RequestID string `json:"request_id,omitempty"`
	// Trace is the evaluation's span tree, present when the request set
	// "trace": true.
	Trace *trace.Trace `json:"trace,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx := r.Context()
	requestID := trace.RequestID(ctx)
	if s.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.QueryTimeout)
		defer cancel()
	}
	// Only an explicit request builds a trace. Every return path
	// finishes it (Finish on a nil trace is a no-op) before the
	// response is written, so an inline trace is complete.
	var tr *trace.Trace
	if req.Trace {
		ctx, tr = trace.Start(ctx, req.Spec, requestID)
	}

	_, psp := trace.StartSpan(ctx, "parse")
	spec, err := ltl.Parse(req.Spec)
	psp.SetError(err)
	psp.End()
	if err != nil {
		tr.Finish()
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	mode := core.Optimized
	switch req.Mode {
	case "", "opt":
	case "scan":
		mode = core.Unoptimized
	default:
		tr.Finish()
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
	res, err := s.db.QueryModeCtx(ctx, spec, mode)
	tr.Finish()
	dur := time.Since(start)
	slow := s.SlowQuery > 0 && dur >= s.SlowQuery
	if slow && s.Logger != nil {
		s.Logger.Warn("slow query",
			"request_id", requestID,
			"query", req.Spec,
			"duration_us", dur.Microseconds(),
		)
	}
	if s.Insights.Enabled() {
		s.recordInsight(&req, requestID, start, dur, slow, res, err)
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
		RequestID:  requestID,
		Trace:      tr,
	}
	// The engine answers in contract-id order, which depends on the
	// registration history; clients get name order.
	for _, c := range res.Matches {
		out.Matches = append(out.Matches, c.Name)
	}
	slices.Sort(out.Matches)
	writeJSON(w, http.StatusOK, out)
}

func byName(a, b *core.Contract) int { return strings.Compare(a.Name, b.Name) }

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
// evaluation that started at start and took dur. Callers guard with
// Insights.Enabled() so the disabled path never reaches entry assembly.
func (s *Server) recordInsight(req *QueryRequest, requestID string, start time.Time, dur time.Duration, slow bool, res *core.Result, err error) {
	e := insights.Entry{
		RequestID:   requestID,
		Query:       req.Spec,
		Mode:        req.Mode,
		StartUnixUS: start.UnixMicro(),
		DurUS:       dur.Microseconds(),
		Slow:        slow,
		CacheTier:   "miss",
	}
	if e.Mode == "" {
		e.Mode = "opt"
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
		if st.CompileHit {
			e.CacheTier = "compiled"
		}
		e.TranslateUS = st.Translate.Microseconds()
		e.FilterUS = st.Filter.Microseconds()
		e.CheckUS = st.Check.Microseconds()
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

// BuildInfo identifies the serving binary: the Go toolchain it was
// built with and the snapshot format it writes.
type BuildInfo struct {
	GoVersion             string `json:"go_version"`
	SnapshotFormatVersion int    `json:"snapshot_format_version"`
}

// CacheMetrics reports the compile cache's occupancy gauges. The
// hit/miss/eviction counters live under Queries.
type CacheMetrics struct {
	QueryCacheLen int `json:"query_cache_len"`
	QueryCacheCap int `json:"query_cache_cap"`
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
			QueryCacheLen: st.Caches.QueryCacheLen,
			QueryCacheCap: st.Caches.QueryCacheCap,
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

// decodeBody is decodeBodyN with the default 1 MiB body limit.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return decodeBodyN(w, r, v, 1<<20)
}

// decodeBodyN decodes r's JSON body, at most limit bytes of it, into v.
// On failure it writes the error response and returns false: 413 when
// the body exceeds limit, 400 for any other malformed body.
func decodeBodyN(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, r, status, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}
