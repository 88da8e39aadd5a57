package main_test

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"contractdb/internal/trace"
)

// TestDaemonTraceContextE2E is the acceptance drive for trace
// propagation: a sharded daemon (-shards=4), a query carrying a
// sampled W3C traceparent, and the assertion that GET /v1/traces/{id}
// yields the span tree under the caller's trace ID, its scatter phase
// fanning out into one child span per shard.
func TestDaemonTraceContextE2E(t *testing.T) {
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, bin, dataDir, "-shards", "4", "-querylog-sample", "1")
	c := d.client()

	for i := 0; i < 8; i++ {
		if _, err := c.Register(fmt.Sprintf("c%d", i), "G(use -> F pay)"); err != nil {
			t.Fatal(err)
		}
	}

	const traceID = "0af7651916cd43dd8448eb211c80319c"
	body := strings.NewReader(`{"spec": "F pay", "no_cache": true}`)
	req, err := http.NewRequest(http.MethodPost, "http://"+d.addr+"/v1/query", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-b7ad6b7169203331-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = HTTP %d", resp.StatusCode)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, traceID) {
		t.Fatalf("response traceparent %q does not continue %s", tp, traceID)
	}

	// The retained trace must sit under the caller's trace ID with a
	// child span per shard probe.
	traces, err := c.TraceByID(traceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatalf("no trace retained under %s", traceID)
	}
	shardSpans := 0
	var count func(*trace.Span)
	count = func(sp *trace.Span) {
		if sp.Name == "shard" {
			shardSpans++
		}
		for _, c := range sp.Children {
			count(c)
		}
	}
	for _, tr := range traces {
		if tr.ID != traceID {
			t.Fatalf("trace %s outside the request trace %s", tr.ID, traceID)
		}
		count(tr.Root)
	}
	if shardSpans < 4 {
		raw, _ := json.Marshal(traces)
		t.Fatalf("trace has %d per-shard spans, want >= 4:\n%s", shardSpans, raw)
	}

	// The same query must be in the insights log with its per-shard
	// cost breakdown and the trace ID for cross-navigation.
	entries, err := c.QueryLog(10)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range entries {
		if e.TraceID == traceID {
			found = true
			if len(e.Shards) != 4 {
				t.Errorf("querylog entry has %d shard stats, want 4: %+v", len(e.Shards), e)
			}
			if e.Verdict != "matches" || e.Candidates == 0 {
				t.Errorf("querylog entry = %+v", e)
			}
		}
	}
	if !found {
		t.Fatalf("traced query not in querylog: %+v", entries)
	}
}

// TestDaemonDebugBundleE2E scrapes /v1/debug/bundle off a live daemon
// and checks the tarball's manifest against its contents.
func TestDaemonDebugBundleE2E(t *testing.T) {
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, bin, dataDir, "-querylog-sample", "1", "-trace-sample", "1")
	c := d.client()

	if _, err := c.Register("A", "G(use -> F pay)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("F pay", ""); err != nil {
		t.Fatal(err)
	}

	raw, err := c.DebugBundle(0)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("bundle is not gzip: %v", err)
	}
	tr := tar.NewReader(gz)
	files := map[string]int64{}
	var manifestRaw []byte
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("bundle tar: %v", err)
		}
		files[hdr.Name] = hdr.Size
		if hdr.Name == "manifest.json" {
			manifestRaw, _ = io.ReadAll(tr)
		}
	}
	var manifest struct {
		Files []string `json:"files"`
	}
	if err := json.Unmarshal(manifestRaw, &manifest); err != nil {
		t.Fatalf("manifest.json: %v (%s)", err, manifestRaw)
	}
	for _, want := range []string{
		"health.json", "metrics.json",
		"traces_recent.json", "querylog.json", "goroutines.txt", "heap.pprof",
	} {
		if files[want] == 0 {
			t.Errorf("bundle file %s missing or empty (have %v)", want, files)
		}
		var listed bool
		for _, f := range manifest.Files {
			if f == want {
				listed = true
			}
		}
		if !listed {
			t.Errorf("manifest does not list %s: %v", want, manifest.Files)
		}
	}
}
