package server_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/insights"
	"contractdb/internal/paperex"
	"contractdb/internal/server"
)

// TestTraceparentPropagation drives a query with an inbound sampled
// traceparent and checks the whole loop: the response echoes a
// traceparent carrying the caller's trace ID, the trace is retained
// under that ID, and the OTLP export addresses the same trace.
func TestTraceparentPropagation(t *testing.T) {
	db := newDB(t, core.Options{})
	srv := server.New(db)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())
	if _, err := client.Register("A", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	body := strings.NewReader(`{"spec": "F refund"}`)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = HTTP %d", resp.StatusCode)
	}
	tp := resp.Header.Get("Traceparent")
	if !strings.Contains(tp, traceID) {
		t.Fatalf("response traceparent %q does not continue trace %s", tp, traceID)
	}

	traces, err := client.TraceByID(traceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 || traces[0].ID != traceID {
		t.Fatalf("TraceByID(%s) = %+v", traceID, traces)
	}

	otlp, err := client.TraceOTLP(traceID)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(otlp)
	if !strings.Contains(string(raw), traceID) {
		t.Errorf("OTLP export does not carry trace id %s: %s", traceID, raw)
	}
	if !strings.Contains(string(raw), "resourceSpans") {
		t.Errorf("OTLP export missing resourceSpans: %s", raw)
	}
}

// TestTraceparentTracesRegistration registers a contract under a
// sampled traceparent and checks the registration is retained as a
// trace under the caller's trace ID, its span recording the projection
// precompute that ran before the response.
func TestTraceparentTracesRegistration(t *testing.T) {
	db := newDB(t, core.Options{})
	srv := server.New(db)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const traceID = "aaaabbbbccccddddeeeeffff00001111"
	body := strings.NewReader(`{"name": "A", "spec": "G !refund"}`)
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/contracts", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = HTTP %d", resp.StatusCode)
	}

	traces := srv.Tracer.ByID(traceID)
	if len(traces) != 1 || traces[0].Name != "register" {
		t.Fatalf("traces under %s = %+v, want one register trace", traceID, traces)
	}
	attrs := map[string]bool{}
	for _, a := range traces[0].Root.Attrs {
		attrs[a.Key] = true
	}
	if !attrs["contract"] || !attrs["precompute_us"] || !attrs["subsets"] {
		t.Errorf("register span attrs %+v, want contract, precompute_us and subsets", traces[0].Root.Attrs)
	}
}

// TestQueryLogEndpoint exercises the insights log through the HTTP
// surface: entries appear newest first with verdicts, cache tiers and
// selectivity filled in.
func TestQueryLogEndpoint(t *testing.T) {
	db := newDB(t, core.Options{})
	srv := server.New(db)
	log, err := insights.Open(insights.Config{SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Insights = log
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())

	if _, err := client.Register("A", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query("F refund", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query("F refund", ""); err != nil { // result-cache hit
		t.Fatal(err)
	}
	if _, err := client.Query("F classUpgrade", ""); err != nil {
		t.Fatal(err)
	}

	entries, err := client.QueryLog(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("querylog has %d entries, want 3", len(entries))
	}
	// Newest first: [empty, result-cached matches, cold matches].
	if entries[0].Verdict != "empty" || entries[0].Query != "F classUpgrade" {
		t.Errorf("entries[0] = %+v, want empty verdict", entries[0])
	}
	if entries[1].Verdict != "matches" || entries[1].CacheTier != "result" {
		t.Errorf("entries[1] = %+v, want result-cache matches", entries[1])
	}
	if entries[2].CacheTier == "result" {
		t.Errorf("entries[2] = %+v, want a cold evaluation", entries[2])
	}
	if entries[2].Corpus != 1 || entries[2].Selectivity <= 0 {
		t.Errorf("entries[2] cost accounting = %+v", entries[2])
	}
}

// TestQueryLogDisabled501s checks the endpoint reports its knob when
// the log is off.
func TestQueryLogDisabled501s(t *testing.T) {
	_, client, _ := newTestServer(t)
	if _, err := client.QueryLog(5); err == nil || !strings.Contains(err.Error(), "501") {
		t.Errorf("querylog without a log should 501, got %v", err)
	}
}

// TestDebugBundle downloads the bundle and checks the tarball holds a
// manifest plus the core diagnostic files, and that the manifest's
// file list matches the archive.
func TestDebugBundle(t *testing.T) {
	srv, client, _ := newTestServer(t)
	log, err := insights.Open(insights.Config{SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Insights = log
	if _, err := client.Register("A", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query("F refund", ""); err != nil {
		t.Fatal(err)
	}

	raw, err := client.DebugBundle(0)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	files := map[string][]byte{}
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar: %v", err)
		}
		data, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		files[hdr.Name] = data
	}
	for _, want := range []string{
		"manifest.json", "health.json", "metrics.json", "metrics.prom",
		"traces_recent.json", "traces_slow.json", "querylog.json",
		"goroutines.txt", "heap.pprof",
	} {
		if _, ok := files[want]; !ok {
			t.Errorf("bundle missing %s (has %v)", want, keys(files))
		}
	}
	var manifest struct {
		GoVersion string   `json:"go_version"`
		Files     []string `json:"files"`
	}
	if err := json.Unmarshal(files["manifest.json"], &manifest); err != nil {
		t.Fatalf("manifest.json: %v", err)
	}
	if manifest.GoVersion == "" {
		t.Error("manifest has no go_version")
	}
	if len(manifest.Files)+1 != len(files) { // manifest lists everything but itself
		t.Errorf("manifest lists %d files, archive has %d", len(manifest.Files), len(files))
	}
	if !bytes.Contains(files["metrics.prom"], []byte("ctdb_contracts")) {
		t.Error("metrics.prom does not look like a Prometheus exposition")
	}
	if !bytes.Contains(files["goroutines.txt"], []byte("goroutine")) {
		t.Error("goroutines.txt does not look like a goroutine dump")
	}
}

func keys(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestOpenMetricsNegotiation checks /metrics stays plain 0.0.4 by
// default and switches to OpenMetrics (terminated by # EOF, exemplars
// allowed) when the scraper asks for it.
func TestOpenMetricsNegotiation(t *testing.T) {
	db := newDB(t, core.Options{})
	srv := server.New(db)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())
	if _, err := client.Register("A", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	// A traced query stamps an exemplar onto the kernel histogram.
	if _, err := client.QueryRequest(server.QueryRequest{Spec: "F refund", Trace: true, NoCache: true}); err != nil {
		t.Fatal(err)
	}

	plain, err := client.PrometheusMetrics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain, "# EOF") || strings.Contains(plain, "trace_id=") {
		t.Error("default exposition must stay strict 0.0.4 (no EOF, no exemplars)")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Errorf("negotiated content type = %q", ct)
	}
	om := string(body)
	if !strings.HasSuffix(strings.TrimRight(om, "\n"), "# EOF") {
		t.Error("OpenMetrics exposition must end with # EOF")
	}
	if !strings.Contains(om, `trace_id="`) {
		t.Error("OpenMetrics exposition should carry the traced query's exemplar")
	}
}

// TestMetricsScrapeChurnRace hammers GET /metrics (both formats) while
// contracts churn through register/unregister and queries run — the
// scrape path must be safe against concurrent registry writes. Run
// with -race.
func TestMetricsScrapeChurnRace(t *testing.T) {
	db := newDB(t, core.Options{})
	srv := server.New(db)
	log, err := insights.Open(insights.Config{SampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Insights = log
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 32)

	// Churn: register/unregister in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn-%d", i)
			if _, err := client.Register(name, "G !refund"); err != nil {
				errs <- err
				return
			}
			if err := client.Unregister(name); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Queries keep the histograms and insights log hot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			client.QueryRequest(server.QueryRequest{Spec: "F refund", Trace: true})
		}
	}()
	// Scrapers, one per format.
	for _, accept := range []string{"", "application/openmetrics-text"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
				if accept != "" {
					req.Header.Set("Accept", accept)
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	// JSON surfaces too: /v1/metrics, querylog, traces.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := client.Metrics(); err != nil {
				errs <- err
				return
			}
			client.QueryLog(10)
			client.Traces()
		}
	}()

	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSSEVerdictShedding floods a stream faster than the (tiny) page
// the SSE loop flushes and checks the shed counter moves — indirectly,
// through the metrics endpoint — while the tail still arrives.
func TestSSEDropCommentFormat(t *testing.T) {
	// The shed path emits a comment line; verify the format stays a
	// legal SSE comment (leading colon, blank-line terminated) so
	// standard EventSource parsers skip it.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, ": dropped %d\n\n", 17)
	s := buf.String()
	if !strings.HasPrefix(s, ": ") || !strings.HasSuffix(s, "\n\n") {
		t.Errorf("shed comment %q is not a legal SSE comment", s)
	}
}
