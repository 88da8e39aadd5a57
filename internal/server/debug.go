package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// GET /v1/debug/bundle streams one gzipped tarball holding everything a
// debugging session usually collects by hand: the metrics surface
// (/v1/metrics, from which /metrics derives), the query-log tail,
// health, build info, a goroutine dump, a heap profile, and — when
// ?cpu=<duration> is given — a CPU profile sampled inside the request.
// The ctdb CLI fronts it as `ctdb debug bundle`.

// maxCPUProfile caps the in-request CPU profiling window so a typo'd
// duration cannot pin the handler (and the global CPU profiler) for
// minutes.
const maxCPUProfile = 30 * time.Second

// bundleManifest indexes the tarball for tooling: which files are
// inside and a few identity fields, so a bundle is self-describing.
type bundleManifest struct {
	CreatedUnixUS int64    `json:"created_unix_us"`
	GoVersion     string   `json:"go_version"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	Files         []string `json:"files"`
}

func (s *Server) handleDebugBundle(w http.ResponseWriter, r *http.Request) {
	var cpu time.Duration
	if v := r.URL.Query().Get("cpu"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("bad cpu %q", v))
			return
		}
		cpu = min(d, maxCPUProfile)
	}

	// Collect every section in memory first: tar needs sizes up front,
	// and a collection error can still turn into a clean HTTP error
	// before any bytes are committed to the response.
	var files []bundleFile
	add := func(name string, data []byte, err error) {
		if err != nil {
			// A failed section becomes a .err note instead of sinking the
			// whole bundle — partial diagnostics beat none.
			data = []byte(err.Error() + "\n")
			name += ".err"
		}
		files = append(files, bundleFile{name: name, data: data})
	}
	addJSON := func(name string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		add(name, data, err)
	}

	addJSON("health.json", s.healthResponse())
	addJSON("metrics.json", s.metricsResponse())
	if s.Insights.Enabled() {
		addJSON("querylog.json", s.Insights.Recent(0))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		add("build_info.txt", []byte(bi.String()), nil)
	}

	var goroutines bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&goroutines, 2)
	add("goroutines.txt", goroutines.Bytes(), nil)

	var heap bytes.Buffer
	runtime.GC() // fresh heap statistics; benchmark drivers also use the bundle to force a collection
	heapErr := pprof.Lookup("heap").WriteTo(&heap, 0)
	add("heap.pprof", heap.Bytes(), heapErr)

	if cpu > 0 {
		var prof bytes.Buffer
		err := pprof.StartCPUProfile(&prof)
		if err == nil {
			select {
			case <-time.After(cpu):
			case <-r.Context().Done():
			}
			pprof.StopCPUProfile()
		}
		add("cpu.pprof", prof.Bytes(), err)
	}

	manifest := bundleManifest{
		CreatedUnixUS: time.Now().UnixMicro(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: s.uptime(),
	}
	for _, f := range files {
		manifest.Files = append(manifest.Files, f.name)
	}
	head, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	files = append([]bundleFile{{name: "manifest.json", data: head}}, files...)

	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", "ctdb-debug-"+time.Now().UTC().Format("20060102-150405")+".tar.gz"))
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	now := time.Now()
	for _, f := range files {
		hdr := &tar.Header{Name: f.name, Mode: 0o644, Size: int64(len(f.data)), ModTime: now}
		if tw.WriteHeader(hdr) != nil {
			return // client gone mid-stream; nothing left to report
		}
		if _, err := tw.Write(f.data); err != nil {
			return
		}
	}
	tw.Close()
	gz.Close()
}

type bundleFile struct {
	name string
	data []byte
}

// healthResponse builds the /v1/health payload (shared with the debug
// bundle).
func (s *Server) healthResponse() HealthResponse {
	resp := HealthResponse{
		Status:        "ok",
		Contracts:     s.db.Len(),
		Events:        s.db.Vocabulary().Len(),
		UptimeSeconds: s.uptime(),
		Recovery:      s.Recovery,
	}
	if s.Streams != nil {
		g := s.Streams.Gauges()
		st := &StreamsHealth{Active: g.Active}
		for _, d := range g.QueueDepths {
			st.PendingBatches += d
		}
		if js, ok := s.Streams.JournalStats(); ok {
			st.Journal = &js
		}
		resp.Streams = st
	}
	return resp
}
