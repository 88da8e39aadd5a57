package main_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"contractdb/internal/server"
)

// buildDaemon compiles ctdbd once per test binary.
func buildDaemon(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "ctdbd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// logBuffer collects a daemon's combined output. exec's copy goroutine
// writes it while the test reads it, so both sides take the mutex.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type daemon struct {
	cmd  *exec.Cmd
	logs *logBuffer
	addr string
}

func startDaemon(t *testing.T, bin, dataDir string, extra ...string) *daemon {
	t.Helper()
	d := &daemon{logs: &logBuffer{}, addr: freeAddr(t)}
	args := append([]string{"-data-dir", dataDir, "-addr", d.addr, "-events", "pay,use,refund"}, extra...)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = d.logs
	d.cmd.Stdout = d.logs
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.Process != nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	client := server.NewClient("http://"+d.addr, nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := client.Health(); err == nil {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up; logs:\n%s", d.logs.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func (d *daemon) client() *server.Client {
	return server.NewClient("http://"+d.addr, nil)
}

// TestDaemonGracefulShutdownAndRecovery drives the full operator
// story: start with a data directory, register over HTTP, SIGTERM,
// observe the "clean shutdown" log line, restart, observe a clean
// recovery (zero replay) with the contract still there; then SIGKILL
// a third run mid-life and watch the fourth replay the WAL instead.
func TestDaemonGracefulShutdownAndRecovery(t *testing.T) {
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")

	d1 := startDaemon(t, bin, dataDir)
	if _, err := d1.client().Register("NoDoubleRefund", "G(refund -> X G !refund)"); err != nil {
		t.Fatal(err)
	}
	if err := d1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d1.cmd.Wait(); err != nil {
		t.Fatalf("daemon exited dirty: %v\n%s", err, d1.logs.String())
	}
	if !strings.Contains(d1.logs.String(), "clean shutdown") {
		t.Fatalf("no clean-shutdown log line:\n%s", d1.logs.String())
	}

	d2 := startDaemon(t, bin, dataDir)
	logs := d2.logs.String()
	if !strings.Contains(logs, "recovered") || !strings.Contains(logs, "clean") {
		t.Errorf("restart after clean shutdown should recover clean:\n%s", logs)
	}
	h, err := d2.client().Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Contracts != 1 {
		t.Fatalf("recovered %d contracts, want 1", h.Contracts)
	}
	// Register another, then die without any shutdown path at all.
	if _, err := d2.client().Register("PayBeforeUse", "G(use -> F pay)"); err != nil {
		t.Fatal(err)
	}
	if err := d2.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d2.cmd.Wait()

	d3 := startDaemon(t, bin, dataDir)
	logs = d3.logs.String()
	if !strings.Contains(logs, "replayed") {
		t.Errorf("restart after SIGKILL should replay the WAL:\n%s", logs)
	}
	h, err = d3.client().Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Contracts != 2 {
		t.Fatalf("recovered %d contracts after crash, want 2", h.Contracts)
	}
	if err := d3.client().Unregister("NoDoubleRefund"); err != nil {
		t.Fatal(err)
	}
	if _, err := d3.client().Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonObservability runs a daemon with a slow-query threshold and
// JSON logging wired up and scrapes the whole observability surface:
// /v1/health's recovery state, /v1/metrics' uptime and build info, a
// trace:true query, the slow-query log line, and the Prometheus
// exposition on /metrics.
func TestDaemonObservability(t *testing.T) {
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	d := startDaemon(t, bin, dataDir,
		"-slow-query", "1ns", "-log-format", "json")
	c := d.client()

	if _, err := c.Register("NoDoubleRefund", "G(refund -> X G !refund)"); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Recovery == nil || h.UptimeSeconds < 0 {
		t.Fatalf("health lacks recovery state: %+v", h)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Build.GoVersion == "" || m.Build.SnapshotFormatVersion == 0 || m.UptimeSeconds < 0 {
		t.Errorf("metrics build info = %+v", m.Build)
	}

	res, err := c.QueryRequest(server.QueryRequest{Spec: "F refund", Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.RequestID == "" || res.Trace.RequestID != res.RequestID {
		t.Fatalf("trace:true over the daemon returned %+v", res)
	}

	// Prometheus exposition: known families present, every sample line
	// is `name[{labels}] <number>`.
	out, err := c.PrometheusMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ctdb_queries_queries",
		"ctdb_queries_translate_seconds_bucket",
		"ctdb_durability_wal_appends",
		"go_goroutines",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("daemon /metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("exposition line %q: non-numeric value: %v", line, err)
		}
	}

	// The JSON request log carries one parseable record per request
	// with the request id; the slow-query log records the traced query
	// under its request id.
	logs := d.logs.String()
	if !strings.Contains(logs, `"request_id":"req-`) {
		t.Errorf("no JSON request log with request ids:\n%s", logs)
	}
	if !strings.Contains(logs, `"msg":"slow query","request_id":"`+res.RequestID+`"`) {
		t.Errorf("no slow-query log line for %s:\n%s", res.RequestID, logs)
	}
}

// TestDaemonFlagValidation: without -data-dir there is nowhere to put
// data, and the legacy -db mode is gone.
func TestDaemonFlagValidation(t *testing.T) {
	bin := buildDaemon(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "-data-dir is required"},
		{[]string{"-db", "x.ctdb", "-data-dir", "y"}, "flag provided but not defined: -db"},
	} {
		cmd := exec.Command(bin, tc.args...)
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 2 {
			t.Errorf("args %v: exit %d (%v), want usage error 2", tc.args, code, err)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("args %v: output %q lacks %q", tc.args, out, tc.want)
		}
	}
}

// TestDaemonHostileTranslation sends a daemon under -query-timeout 1s
// two queries whose translation once held a request for seconds: the
// fairness conjunction G F e0 ∧ … ∧ G F e9, and a chain of 10,000 X
// operators. Each must answer within 1.5 s, with its matches (200) or
// with a timeout (408), and leave the daemon serving. The daemon's
// vocabulary holds e0…e9, since a query citing an unknown event is
// refused before translation.
func TestDaemonHostileTranslation(t *testing.T) {
	bin := buildDaemon(t)
	var fairness, events []string
	for i := range 10 {
		fairness = append(fairness, fmt.Sprintf("G F e%d", i))
		events = append(events, fmt.Sprintf("e%d", i))
	}
	d := startDaemon(t, bin, filepath.Join(t.TempDir(), "data"), "-query-timeout", "1s",
		"-events", "pay,use,refund,"+strings.Join(events, ","))
	if _, err := d.client().Register("PayBeforeUse", "G(use -> F pay)"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ name, spec string }{
		{"fairness", strings.Join(fairness, " && ")},
		{"next chain", strings.Repeat("X ", 10_000) + "pay"},
	} {
		body, err := json.Marshal(server.QueryRequest{Spec: q.spec})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := http.Post("http://"+d.addr+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		elapsed := time.Since(start)
		t.Logf("%s: %d after %v", q.name, resp.StatusCode, elapsed)
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusRequestTimeout {
			t.Errorf("%s: status %d, want 200 or 408", q.name, resp.StatusCode)
		}
		if elapsed > 1500*time.Millisecond {
			t.Errorf("%s: answered after %v, want within 1.5s", q.name, elapsed)
		}
	}
	if _, err := d.client().Query("F pay", ""); err != nil {
		t.Fatalf("daemon stopped serving: %v", err)
	}
}
