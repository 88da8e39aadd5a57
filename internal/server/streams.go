package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"contractdb/internal/stream"
	"contractdb/internal/vocab"
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
	case errors.Is(err, stream.ErrExists):
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
	if !decodeBody(w, r, &req) {
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
	snaps, ok := decodePush(w, r, b.Vocabulary())
	if !ok {
		return
	}
	first, err := b.Append(r.Context(), r.PathValue("name"), snaps)
	if err != nil {
		writeErr(w, r, streamStatus(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, StreamEventsResponse{First: first, Accepted: len(snaps)})
}

// decodePush decodes a StreamEventsRequest body straight into event
// sets resolved against voc, refusing what AppendEvents on the decoded
// request would, with the same status. It writes the refusal itself.
func decodePush(w http.ResponseWriter, r *http.Request, voc *vocab.Vocabulary) ([]vocab.Set, bool) {
	req := struct {
		Events pushEvents `json:"events"`
	}{pushEvents{voc: voc}}
	if !decodeBodyN(w, r, &req, 8<<20) {
		return nil, false
	}
	err := req.Events.unknown
	if err == nil && len(req.Events.sets) == 0 {
		err = errors.New("events is required")
	}
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return nil, false
	}
	return req.Events.sets, true
}

// pushEvents is a push's events array as one event set per instant.
// An unknown name is kept, not returned as a decode error, so that a
// later duplicate "events" key replaces it as it would the names.
type pushEvents struct {
	voc     *vocab.Vocabulary
	sets    []vocab.Set
	unknown error
}

var errPushShape = errors.New("events must be an array of arrays of event names")

// UnmarshalJSON gets a value the decoder has checked as JSON, so only
// its shape is checked here.
func (p *pushEvents) UnmarshalJSON(data []byte) error {
	p.sets, p.unknown = nil, nil
	if data[0] == 'n' {
		return nil
	} else if data[0] != '[' {
		return errPushShape
	}
	var buf [64]vocab.Set // one exact allocation for up to 64 instants
	sets := buf[:0]
	for i := skipSeparators(data, 1); data[i] != ']'; i = skipSeparators(data, i+1) {
		var set vocab.Set // a null instant is an empty one
		switch data[i] {
		case 'n':
			i += len("null") - 1
		case '[':
			for i = skipSeparators(data, i+1); data[i] != ']'; i = skipSeparators(data, i) {
				name, next, err := scanName(data, i)
				if err != nil {
					return err
				}
				id, ok := p.voc.LookupBytes(name)
				if !ok {
					p.unknown = fmt.Errorf("stream: events[%d]: vocab: unknown event %q", len(sets), name)
					return nil
				}
				set, i = set.With(id), next
			}
		default:
			return errPushShape
		}
		sets = append(sets, set)
	}
	p.sets = append([]vocab.Set(nil), sets...)
	return nil
}

// scanName returns the name at data[i] and the index past it, in
// place unless it holds escapes or invalid UTF-8. null reads as "", as
// it does decoded into a string, and "" names no event.
func scanName(data []byte, i int) ([]byte, int, error) {
	if data[i] == 'n' {
		return nil, i + len("null"), nil
	} else if data[i] != '"' {
		return nil, 0, errPushShape
	}
	end := i + 1
	for ; data[end] != '"'; end++ {
		if data[end] == '\\' {
			end++
		}
	}
	if name := data[i+1 : end]; bytes.IndexByte(name, '\\') < 0 && utf8.Valid(name) {
		return name, end + 1, nil
	}
	var s string
	err := json.Unmarshal(data[i:end+1], &s)
	return []byte(s), end + 1, err
}

// skipSeparators returns the index of the first byte at or after i
// that is neither JSON whitespace nor a comma.
func skipSeparators(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == ',' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
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
