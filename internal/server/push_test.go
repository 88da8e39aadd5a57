package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/server"
	"contractdb/internal/stream"
	"contractdb/internal/wal"
)

// pushBroker opens a durable broker in a fresh directory with one
// stream "s" on it; auto-checkpoints are off, so the directory's WAL
// holds every record the broker acknowledged.
func pushBroker(t *testing.T, src stream.ContractSource) (*stream.Broker, string) {
	t.Helper()
	dir := t.TempDir()
	b, err := stream.New(src, stream.Config{Shards: 1, Dir: dir, Sync: wal.SyncNever, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if _, err := b.Create(context.Background(), "s", []string{"NoRefund"}); err != nil {
		t.Fatal(err)
	}
	return b, dir
}

// walBytes returns the bytes of every WAL segment under a broker's
// directory, in name order.
func walBytes(t *testing.T, dir string) []byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no WAL segments under %s: %v", dir, err)
	}
	var out []byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

func push(srv http.Handler, stream, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/streams/"+stream+"/events", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestPushRoute pins POST /v1/streams/{name}/events through
// Server.ServeHTTP: the status and message of every refusal, and, for
// each accepted push, the event sets it journals. Those are compared
// with Broker.AppendEvents': a second broker, fed the same batches
// through AppendEvents, must hold a byte-identical WAL.
func TestPushRoute(t *testing.T) {
	db := newDB(t, core.Options{})
	if _, err := db.RegisterLTL("NoRefund", "G !refund"); err != nil {
		t.Fatal(err)
	}
	served, servedDir := pushBroker(t, db)
	direct, directDir := pushBroker(t, db)
	srv := server.New(db)
	srv.Streams = served

	huge := `{"events":[["` + strings.Repeat("a", 9<<20) + `"]]}`
	cases := []struct {
		name, stream, body string
		want               int
		msg                string     // a refusal's message contains it
		events             [][]string // an accepted push's batches
	}{
		{name: "malformed", body: `{"events":[["purchase"]`, want: 400, msg: "bad request body"},
		{name: "unknown field", body: `{"events":[["purchase"]],"extra":1}`, want: 400, msg: `unknown field "extra"`},
		{name: "wrong type", body: `{"events":[["purchase",7]]}`, want: 400, msg: "bad request body"},
		{name: "events missing", body: `{}`, want: 400, msg: "events is required"},
		{name: "events null", body: `{"events":null}`, want: 400, msg: "events is required"},
		{name: "events empty", body: `{"events":[]}`, want: 400, msg: "events is required"},
		{name: "unknown event", body: `{"events":[[],["purchase","bogus"]]}`, want: 400, msg: `events[1]: vocab: unknown event "bogus"`},
		{name: "escaped unknown event", body: `{"events":[["\u0062ogus"]]}`, want: 400, msg: `events[0]: vocab: unknown event "bogus"`},
		{name: "null name", body: `{"events":[[null]]}`, want: 400, msg: `events[0]: vocab: unknown event ""`},
		{name: "over 8 MiB", body: huge, want: 413, msg: "request body too large"},
		{name: "unknown stream", stream: "ghost", body: `{"events":[[]]}`, want: 404, msg: `"ghost"`},
		{name: "accepted", body: `{"events":[["purchase"],null,[],["use","refund"]]}`, want: 202,
			events: [][]string{{"purchase"}, nil, {}, {"use", "refund"}}},
		{name: "escaped names", body: "{\"events\" : [ [\"\\u0070urchase\" , \"us\\u0065\"] ,\n[\"dateChange\",\"dateChange\"]]}", want: 202,
			events: [][]string{{"purchase", "use"}, {"dateChange"}}},
		{name: "key case and duplicate key", body: `{"events":[["bogus"]],"EVENTS":[["refund"]]}`, want: 202,
			events: [][]string{{"refund"}}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := tc.stream
			if name == "" {
				name = "s"
			}
			rec := push(srv, name, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("status %d (%s), want %d", rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
			}
			if tc.want != http.StatusAccepted {
				var apiErr server.Error
				if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
					t.Fatalf("error body %q: %v", rec.Body.String(), err)
				}
				if !strings.Contains(apiErr.Error, tc.msg) {
					t.Fatalf("error %q does not contain %q", apiErr.Error, tc.msg)
				}
				return
			}
			first, err := direct.AppendEvents(ctx, "s", tc.events)
			if err != nil {
				t.Fatal(err)
			}
			var ack server.StreamEventsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
				t.Fatal(err)
			}
			if ack.First != first || ack.Accepted != len(tc.events) {
				t.Fatalf("ack %+v, want first %d accepted %d", ack, first, len(tc.events))
			}
			if !bytes.Equal(walBytes(t, servedDir), walBytes(t, directDir)) {
				t.Fatal("the pushed batch journaled other event sets than AppendEvents")
			}
		})
	}

	t.Run("closed broker", func(t *testing.T) {
		closed, _ := pushBroker(t, db)
		if err := closed.Close(); err != nil {
			t.Fatal(err)
		}
		srv := server.New(db)
		srv.Streams = closed
		if rec := push(srv, "s", `{"events":[["use"]]}`); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("push to a closed broker: %d (%s), want 503", rec.Code, rec.Body.String())
		}
	})
}
