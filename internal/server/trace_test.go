package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/insights"
	"contractdb/internal/paperex"
	"contractdb/internal/server"
)

// newTraceServer is newTestServer plus the raw httptest server, for
// tests that need headers or bodies the typed client hides.
func newTraceServer(t *testing.T) (*server.Server, *httptest.Server, *server.Client) {
	t.Helper()
	db := newDB(t, core.Options{})
	srv := server.New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := server.NewClient(ts.URL, ts.Client())
	if _, err := client.Register("TicketB", paperex.TicketB().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register("TicketA", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	return srv, ts, client
}

// TestQueryTraceInline exercises the explain knob: "trace": true must
// return the query's span tree, the stages must cover the evaluation
// pipeline, and the stage durations must sum to no more than the
// trace's reported total (they are disjoint phases of it).
func TestQueryTraceInline(t *testing.T) {
	_, _, client := newTraceServer(t)
	res, err := client.QueryRequest(server.QueryRequest{
		Spec:  "F(missedFlight && X F refund)",
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID == "" {
		t.Error("query response missing request id")
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("trace:true returned no trace")
	}
	if tr.RequestID != res.RequestID || tr.Query != "F(missedFlight && X F refund)" {
		t.Errorf("trace identity = %q %q", tr.RequestID, tr.Query)
	}
	names := make(map[string]bool)
	var sum int64
	for _, c := range tr.Root.Children {
		names[c.Name] = true
		sum += c.DurUS
	}
	for _, want := range []string{"parse", "canonicalize", "translate", "scan"} {
		if !names[want] {
			t.Errorf("trace has no %q stage (stages: %v)", want, names)
		}
	}
	// Stage spans are sequential slices of the evaluation, so their
	// durations sum within the total (µs rounding gives each span at
	// most 1µs of slack).
	if slack := int64(len(tr.Root.Children)) + 1; sum > tr.DurUS+slack {
		t.Errorf("stage durations sum to %dµs, exceeding trace total %dµs", sum, tr.DurUS)
	}
	// The scan stage carries per-candidate check spans.
	for _, c := range tr.Root.Children {
		if c.Name == "scan" && len(c.Children) == 0 {
			t.Error("scan stage recorded no per-candidate checks")
		}
	}

	// A second identical query reuses the compiled automaton, and its
	// canonicalize span says so; the answer is the first one's.
	res2, err := client.QueryRequest(server.QueryRequest{
		Spec:  "F(missedFlight && X F refund)",
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace == nil {
		t.Fatal("second query returned no trace")
	}
	if !slices.Equal(res2.Matches, res.Matches) {
		t.Errorf("second query matched %v, first %v", res2.Matches, res.Matches)
	}
	compileHit := false
	for _, c := range res2.Trace.Root.Children {
		for _, a := range c.Attrs {
			if c.Name == "canonicalize" && a.Key == "cache_hit" && a.Value == true {
				compileHit = true
			}
		}
	}
	if !compileHit {
		t.Error("second query's canonicalize span reports no compile-cache hit")
	}
}

// TestRequestIDPropagation covers the middleware: a client-supplied
// X-Request-ID is adopted and echoed, a missing one is generated, and
// error envelopes carry the id.
func TestRequestIDPropagation(t *testing.T) {
	_, ts, _ := newTraceServer(t)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
		bytes.NewReader([]byte(`{"spec": "F(("}`)))
	req.Header.Set("X-Request-ID", "req-test-42")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-test-42" {
		t.Errorf("echoed request id = %q, want req-test-42", got)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
	var apiErr server.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.RequestID != "req-test-42" || apiErr.Error == "" {
		t.Errorf("error envelope = %+v, want the request id and a message", apiErr)
	}

	resp2, err := ts.Client().Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); !strings.HasPrefix(got, "req-") {
		t.Errorf("generated request id = %q, want req-… form", got)
	}
}

// TestSlowQueryThreshold checks the one slow-query threshold: a query
// at least Server.SlowQuery slow yields exactly one "slow query" log
// record carrying its request ID, and its query-log entry is marked
// slow under the same ID. With the threshold off, no record is written.
func TestSlowQueryThreshold(t *testing.T) {
	for _, threshold := range []time.Duration{time.Nanosecond, 0} {
		srv, ts, _ := newTraceServer(t)
		var buf bytes.Buffer
		srv.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
		srv.SlowQuery = threshold
		srv.Insights = insights.New(1)

		const id = "req-slow-1"
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(`{"spec": "F refund"}`))
		req.Header.Set("X-Request-ID", id)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query = HTTP %d", resp.StatusCode)
		}

		var slow []map[string]any
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var rec map[string]any
			if err := dec.Decode(&rec); err != nil {
				t.Fatalf("log is not JSON records: %v", err)
			}
			if rec["msg"] == "slow query" {
				slow = append(slow, rec)
			}
		}
		entries := srv.Insights.Recent(0)
		if len(entries) != 1 || entries[0].RequestID != id {
			t.Fatalf("threshold %v: query log = %+v, want one entry for %s", threshold, entries, id)
		}
		if threshold == 0 {
			if len(slow) != 0 || entries[0].Slow {
				t.Errorf("threshold off: %d slow-query records, entry slow=%t; want none", len(slow), entries[0].Slow)
			}
			continue
		}
		if len(slow) != 1 {
			t.Fatalf("%d slow-query records, want 1:\n%s", len(slow), buf.String())
		}
		if rec := slow[0]; rec["request_id"] != id || rec["query"] != "F refund" || rec["duration_us"] == nil {
			t.Errorf("slow-query record = %v, want request_id %s, the query and duration_us", rec, id)
		}
		if !entries[0].Slow {
			t.Errorf("query-log entry %+v not marked slow", entries[0])
		}
	}
}

// TestRequestLogging checks the structured request log: one JSON
// record per request with the fields operators filter on.
func TestRequestLogging(t *testing.T) {
	srv, _, client := newTraceServer(t)
	var buf bytes.Buffer
	srv.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	if _, err := client.Query("F refund", ""); err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("request log is not one JSON record: %v\n%s", err, buf.String())
	}
	if rec["method"] != "POST" || rec["path"] != "/v1/query" || rec["status"] != float64(200) {
		t.Errorf("log record = %v", rec)
	}
	if id, _ := rec["request_id"].(string); !strings.HasPrefix(id, "req-") {
		t.Errorf("log record request_id = %v", rec["request_id"])
	}
}

// TestPrometheusEndpoint scrapes GET /metrics and checks the text
// exposition: right content type, the engine's families present, every
// sample line numeric.
func TestPrometheusEndpoint(t *testing.T) {
	_, ts, client := newTraceServer(t)
	if _, err := client.Query("F refund", ""); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(buf)
	for _, want := range []string{
		"ctdb_contracts 2",
		"ctdb_queries_queries 1",
		"# TYPE ctdb_queries_kernel_seconds histogram",
		`ctdb_queries_kernel_seconds_bucket{le="+Inf"} 1`,
		"# TYPE go_goroutines gauge",
		"ctdb_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
