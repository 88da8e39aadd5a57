package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"contractdb/internal/stream"
)

// Streaming endpoints. A server whose Streams broker is nil (the
// daemon was started without stream support) answers 501 on all of
// them.
//
//	POST   /v1/streams                  open {"name": ..., "contracts": [...]}
//	GET    /v1/streams                  list open streams
//	GET    /v1/streams/{name}           one stream's contracts and statuses
//	DELETE /v1/streams/{name}           close a stream
//	POST   /v1/streams/{name}/events    push {"events": [["pay"],["use","change"]]}
//	GET    /v1/streams/{name}/verdicts  poll verdicts past ?after=N; &wait=30s
//	                                    long-polls, Accept: text/event-stream
//	                                    (or ?sse=1) switches to an SSE tail
const (
	// maxVerdictWait caps one long-poll round; clients re-poll (or the
	// SSE loop re-arms) so longer waits don't pin a parked handler past
	// proxy idle timeouts.
	maxVerdictWait = 60 * time.Second
	// sseHeartbeat is the idle interval between SSE keepalive comments.
	sseHeartbeat = 15 * time.Second
	// maxSSEBacklog bounds how many buffered verdicts one SSE write
	// round will flush to a consumer that fell behind. Older verdicts
	// beyond the bound are shed (counted in the streams sse_dropped metric
	// and announced with a ": dropped N" comment) so one slow reader
	// cannot make the handler stream an unbounded catch-up burst.
	maxSSEBacklog = 256
)

func (s *Server) registerStreamRoutes() {
	s.mux.HandleFunc("POST /v1/streams", s.handleStreamCreate)
	s.mux.HandleFunc("GET /v1/streams", s.handleStreamList)
	s.mux.HandleFunc("GET /v1/streams/{name}", s.handleStreamInfo)
	s.mux.HandleFunc("DELETE /v1/streams/{name}", s.handleStreamDelete)
	s.mux.HandleFunc("POST /v1/streams/{name}/events", s.handleStreamEvents)
	s.mux.HandleFunc("GET /v1/streams/{name}/verdicts", s.handleStreamVerdicts)
}

// broker returns the stream broker or writes the 501 that every
// streaming endpoint shares.
func (s *Server) broker(w http.ResponseWriter, r *http.Request) *stream.Broker {
	if s.Streams == nil {
		writeErr(w, r, http.StatusNotImplemented, errors.New("streaming is not enabled (start ctdbd with -stream-shards)"))
		return nil
	}
	return s.Streams
}

func streamStatus(err error) int {
	switch {
	case errors.Is(err, stream.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, stream.ErrClosed):
		return http.StatusServiceUnavailable
	case strings.Contains(err.Error(), "already exists"):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// StreamCreateRequest opens one monitored stream.
type StreamCreateRequest struct {
	Name      string   `json:"name"`
	Contracts []string `json:"contracts"`
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	b := s.broker(w, r)
	if b == nil {
		return
	}
	var req StreamCreateRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	info, err := b.Create(r.Context(), req.Name, req.Contracts)
	if err != nil {
		writeErr(w, r, streamStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	b := s.broker(w, r)
	if b == nil {
		return
	}
	infos := b.List()
	if infos == nil {
		infos = []stream.Info{}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleStreamInfo(w http.ResponseWriter, r *http.Request) {
	b := s.broker(w, r)
	if b == nil {
		return
	}
	info, err := b.Info(r.PathValue("name"))
	if err != nil {
		writeErr(w, r, streamStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	b := s.broker(w, r)
	if b == nil {
		return
	}
	if err := b.Delete(r.Context(), r.PathValue("name")); err != nil {
		writeErr(w, r, streamStatus(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// StreamEventsRequest pushes a batch of event snapshots; each inner
// slice is one instant's event set (empty slices are legal instants).
type StreamEventsRequest struct {
	Events [][]string `json:"events"`
}

// StreamEventsResponse acknowledges a pushed batch: the batch is
// journaled (when the broker is durable) and queued; First is the index
// of its first snapshot in the stream's event sequence.
type StreamEventsResponse struct {
	First    uint64 `json:"first"`
	Accepted int    `json:"accepted"`
}

func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	b := s.broker(w, r)
	if b == nil {
		return
	}
	var req StreamEventsRequest
	if err := decodeBodyN(r, &req, 8<<20); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if len(req.Events) == 0 {
		writeErr(w, r, http.StatusBadRequest, errors.New("events is required"))
		return
	}
	first, err := b.AppendEvents(r.Context(), r.PathValue("name"), req.Events)
	if err != nil {
		writeErr(w, r, streamStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, StreamEventsResponse{First: first, Accepted: len(req.Events)})
}

// StreamVerdictsResponse is one long-poll round: the verdicts past the
// requested sequence (possibly empty on timeout) and the cursor to
// resume from.
type StreamVerdictsResponse struct {
	Stream   string           `json:"stream"`
	Verdicts []stream.Verdict `json:"verdicts"`
	Next     int              `json:"next"`
}

func (s *Server) handleStreamVerdicts(w http.ResponseWriter, r *http.Request) {
	b := s.broker(w, r)
	if b == nil {
		return
	}
	name := r.PathValue("name")
	q := r.URL.Query()
	after := 0
	if v := q.Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("bad after %q", v))
			return
		}
		after = n
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("bad wait %q", v))
			return
		}
		wait = min(d, maxVerdictWait)
	}
	if q.Get("sse") == "1" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamVerdictsSSE(w, r, b, name, after)
		return
	}
	vs, err := b.Verdicts(r.Context(), name, after, wait)
	if err != nil {
		if errors.Is(err, r.Context().Err()) {
			writeErr(w, r, http.StatusRequestTimeout, err)
			return
		}
		writeErr(w, r, streamStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, StreamVerdictsResponse{Stream: name, Verdicts: vs, Next: after + len(vs)})
}

// streamVerdictsSSE tails the stream's verdicts as Server-Sent Events:
// one "verdict" event per transition, comment keepalives while idle,
// until the client disconnects or the stream is deleted.
func (s *Server) streamVerdictsSSE(w http.ResponseWriter, r *http.Request, b *stream.Broker, name string, after int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, r, http.StatusNotImplemented, errors.New("response writer does not support streaming"))
		return
	}
	// Probe existence before committing to the event-stream content
	// type, so an unknown stream is a clean 404.
	if _, err := b.Info(name); err != nil {
		writeErr(w, r, streamStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	ctx := r.Context()
	for {
		vs, err := b.Verdicts(ctx, name, after, sseHeartbeat)
		if err != nil {
			if errors.Is(err, stream.ErrNotFound) {
				fmt.Fprintf(w, "event: deleted\ndata: {\"stream\":%q}\n\n", name)
				fl.Flush()
			}
			return
		}
		if len(vs) == 0 {
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
			continue
		}
		if len(vs) > maxSSEBacklog {
			dropped := len(vs) - maxSSEBacklog
			vs = vs[dropped:]
			b.Metrics().SSEDropped.Add(int64(dropped))
			fmt.Fprintf(w, ": dropped %d\n\n", dropped)
		}
		for _, v := range vs {
			data, err := json.Marshal(v)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: verdict\nid: %d\ndata: %s\n\n", v.Seq, data)
			after = v.Seq
		}
		fl.Flush()
	}
}
