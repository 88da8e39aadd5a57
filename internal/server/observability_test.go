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
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/insights"
	"contractdb/internal/metrics"
	"contractdb/internal/paperex"
	"contractdb/internal/server"
	"contractdb/internal/store"
	"contractdb/internal/stream"
)

// TestQueryLogEndpoint exercises the insights log through the HTTP
// surface: entries appear newest first with verdicts, cache tiers and
// selectivity filled in.
func TestQueryLogEndpoint(t *testing.T) {
	db := newDB(t, core.Options{})
	srv := server.New(db)
	srv.Insights = insights.New(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())

	if _, err := client.Register("A", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query("F refund", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query("F refund", ""); err != nil { // compile-cache hit
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
	// Newest first: [empty, compiled matches, cold matches].
	if entries[0].Verdict != "empty" || entries[0].Query != "F classUpgrade" {
		t.Errorf("entries[0] = %+v, want empty verdict", entries[0])
	}
	if entries[1].Verdict != "matches" || entries[1].CacheTier != "compiled" {
		t.Errorf("entries[1] = %+v, want compile-cache matches", entries[1])
	}
	if entries[2].CacheTier != "miss" {
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
	srv.Insights = insights.New(1)
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
		"manifest.json", "health.json", "metrics.json",
		"querylog.json",
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
	var m server.MetricsResponse
	if err := json.Unmarshal(files["metrics.json"], &m); err != nil || m.Contracts != 1 {
		t.Errorf("metrics.json = %+v (%v), want the /v1/metrics payload with 1 contract", m, err)
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

// TestMetricsScrapeChurnRace hammers GET /metrics while
// contracts churn through register/unregister and queries run — the
// scrape path must be safe against concurrent registry writes. Run
// with -race.
func TestMetricsScrapeChurnRace(t *testing.T) {
	db := newDB(t, core.Options{})
	srv := server.New(db)
	srv.Insights = insights.New(1)
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
	// The Prometheus scraper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := client.PrometheusMetrics(); err != nil {
				errs <- err
				return
			}
		}
	}()
	// JSON surfaces too: /v1/metrics and the querylog.
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

// TestPrometheusParity checks GET /metrics against GET /v1/metrics on a
// server with durability and streams attached, before any query and
// after a round of traffic: every numeric leaf of the JSON has a ctdb_
// family of the matching type, and every ctdb_ family maps back to a
// leaf. go_gc_cycles_total must parse as an integer.
func TestPrometheusParity(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Config{Events: paperex.NewVocabulary().Names()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	broker, err := stream.New(st.DB(), stream.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	srv := server.New(st.DB())
	srv.Durability = st.Metrics()
	srv.Streams = broker
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())

	check := func(when string) {
		t.Helper()
		var raw any
		if err := getJSON(ts.URL+"/v1/metrics", &raw); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		jsonFamilies(raw, "ctdb", want)
		prom, err := client.PrometheusMetrics()
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		gcLine := false
		for _, line := range strings.Split(prom, "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && strings.HasPrefix(f[2], "ctdb_") {
				got[f[2]] = f[3]
			}
			if v, ok := strings.CutPrefix(line, "go_gc_cycles_total "); ok {
				if _, err := strconv.ParseInt(v, 10, 64); err != nil {
					t.Errorf("%s: go_gc_cycles_total %q: %v", when, v, err)
				}
				gcLine = true
			}
		}
		if !gcLine {
			t.Errorf("%s: no go_gc_cycles_total line", when)
		}
		for name, typ := range want {
			if got[name] != typ {
				t.Errorf("%s: JSON leaf %s wants a %s family, /metrics has %q", when, name, typ, got[name])
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: family %s maps to no /v1/metrics leaf", when, name)
			}
		}
		for _, block := range []string{"ctdb_durability_wal_appends", "ctdb_streams_events", "ctdb_streams_gauges_queue_depths"} {
			if _, ok := got[block]; !ok {
				t.Errorf("%s: /metrics lacks %s", when, block)
			}
		}
	}

	check("before any query")
	for name, spec := range map[string]string{"A": paperex.TicketA().String(), "B": paperex.TicketB().String()} {
		if _, err := client.Register(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.CreateStream("s", []string{"A"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PushEvents("s", [][]string{{"refund"}}); err != nil {
		t.Fatal(err)
	}
	for _, req := range []server.QueryRequest{{Spec: "F refund"}, {Spec: "F refund"}, {Spec: "F refund", FindAny: true, Trace: true}} {
		if _, err := client.QueryRequest(req); err != nil {
			t.Fatal(err)
		}
	}
	check("after queries")

	// A zero payload — every histogram without buckets — still renders.
	var b strings.Builder
	if err := metrics.WritePrometheus(&b, server.MetricsResponse{}); err != nil || !strings.Contains(b.String(), "ctdb_queries_kernel_seconds_count 0") {
		t.Errorf("zero payload: %v\n%s", err, b.String())
	}
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// jsonFamilies derives, independently of the renderer, the family each
// numeric JSON leaf should have: histogram objects (the key set of a
// metrics.HistogramSnapshot) become "<path>_seconds" histograms,
// non-empty number arrays gauges, other numbers untyped.
func jsonFamilies(v any, path string, out map[string]string) {
	switch x := v.(type) {
	case map[string]any:
		if isHistogramJSON(x) {
			out[path+"_seconds"] = "histogram"
			return
		}
		for k, e := range x {
			jsonFamilies(e, path+"_"+k, out)
		}
	case []any:
		if len(x) > 0 {
			if _, ok := x[0].(float64); ok {
				out[path] = "gauge"
			}
		}
	case float64:
		out[path] = "untyped"
	}
}

func isHistogramJSON(m map[string]any) bool {
	raw, _ := json.Marshal(metrics.HistogramSnapshot{})
	var keys map[string]any
	json.Unmarshal(raw, &keys)
	if len(keys) != len(m) {
		return false
	}
	for k := range keys {
		if _, ok := m[k]; !ok {
			return false
		}
	}
	return true
}
