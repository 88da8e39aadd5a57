package server_test

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/server"
	"contractdb/internal/stream"
)

func newStreamServer(t *testing.T) (*server.Client, string) {
	t.Helper()
	db := newDB(t, core.Options{})
	for _, c := range []struct{ name, spec string }{
		{"NoRefund", "G !refund"},
		{"UseNeedsPurchase", "G(use -> F purchase)"},
	} {
		if _, err := db.RegisterLTL(c.name, c.spec); err != nil {
			t.Fatal(err)
		}
	}
	broker, err := stream.New(db, stream.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { broker.Close() })
	srv := server.New(db)
	srv.Streams = broker
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return server.NewClient(ts.URL, ts.Client()), ts.URL
}

func TestStreamEndpoints(t *testing.T) {
	client, _ := newStreamServer(t)

	info, err := client.CreateStream("alice", []string{"NoRefund", "UseNeedsPurchase"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "alice" || len(info.Contracts) != 2 || info.Verdicts != 2 {
		t.Fatalf("created stream = %+v", info)
	}

	if _, err := client.CreateStream("alice", []string{"NoRefund"}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate create = %v, want 409", err)
	}
	if _, err := client.CreateStream("bob", []string{"NoSuchContract"}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("bad contract create = %v, want 400", err)
	}
	if _, err := client.StreamInfo("ghost"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown stream info = %v, want 404", err)
	}

	ack, err := client.PushEvents("alice", [][]string{{"use"}, {"purchase"}, {"refund"}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.First != 0 || ack.Accepted != 3 {
		t.Fatalf("push ack = %+v", ack)
	}

	// Long-poll past the two initial verdicts: the refund violation
	// arrives asynchronously.
	vr, err := client.StreamVerdicts("alice", 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(vr.Verdicts) != 1 || vr.Verdicts[0].Contract != "NoRefund" || vr.Verdicts[0].To != "violated" || vr.Next != 3 {
		t.Fatalf("long-polled verdicts = %+v", vr)
	}
	// Cursor past the end with no wait: empty, cursor unchanged.
	vr, err = client.StreamVerdicts("alice", vr.Next, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vr.Verdicts) != 0 || vr.Next != 3 {
		t.Fatalf("empty poll = %+v", vr)
	}

	infos, err := client.Streams()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "alice" {
		t.Fatalf("stream list = %+v", infos)
	}

	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Streams == nil || m.Streams.Events != 3 || m.Streams.Gauges.Active != 1 {
		t.Fatalf("metrics streams block = %+v", m.Streams)
	}

	prom, err := client.PrometheusMetrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"ctdb_streams_gauges_active 1",
		"ctdb_streams_events 3",
		"ctdb_streams_transitions 1",
		"ctdb_streams_gauges_queue_depths{shard=\"0\"}",
	} {
		if !strings.Contains(prom, family) {
			t.Errorf("prometheus output missing %q", family)
		}
	}

	if err := client.DeleteStream("alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StreamInfo("alice"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("info after delete = %v, want 404", err)
	}
}

// TestStreamSSE tails verdicts over Server-Sent Events: the initial
// verdicts arrive as events, then a violation pushed mid-tail.
func TestStreamSSE(t *testing.T) {
	client, base := newStreamServer(t)
	if _, err := client.CreateStream("s", []string{"NoRefund"}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/v1/streams/s/verdicts?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("SSE response: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	go func() {
		time.Sleep(30 * time.Millisecond)
		client.PushEvents("s", [][]string{{"refund"}})
	}()

	var events []string
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			events = append(events, data)
			if strings.Contains(data, "violated") {
				break
			}
		}
	}
	if len(events) != 2 {
		t.Fatalf("SSE data events = %q, want initial verdict + violation", events)
	}
	if !strings.Contains(events[0], `"to":"compliant"`) || !strings.Contains(events[1], `"to":"violated"`) {
		t.Fatalf("SSE verdicts = %q", events)
	}

	// SSE on an unknown stream is a clean 404, not a hung tail.
	resp404, err := http.Get(base + "/v1/streams/ghost/verdicts?sse=1")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("SSE on unknown stream = %d, want 404", resp404.StatusCode)
	}
}

// TestStreamsDisabled: a server without a broker answers 501 on every
// streaming endpoint.
func TestStreamsDisabled(t *testing.T) {
	_, client, _ := newTestServer(t)
	if _, err := client.Streams(); err == nil || !strings.Contains(err.Error(), "501") {
		t.Fatalf("streams list without broker = %v, want 501", err)
	}
	if _, err := client.CreateStream("s", []string{"C"}); err == nil || !strings.Contains(err.Error(), "501") {
		t.Fatalf("stream create without broker = %v, want 501", err)
	}
	if _, err := client.PushEvents("s", [][]string{{"use"}}); err == nil || !strings.Contains(err.Error(), "501") {
		t.Fatalf("push without broker = %v, want 501", err)
	}
}
