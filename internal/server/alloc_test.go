//go:build !race

package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/paperex"
	"contractdb/internal/stream"
)

// TestRequestAllocCeilings pins the allocations of one request through
// Server.ServeHTTP with no logger, httptest's request and recorder
// included: a query that hits the compile cache, the same query with
// no_cache, and pushes of 64 instants (stream_monitor's shape) and of
// one instant to an in-memory broker, whose worker applies them
// without a verdict transition. Each ceiling is the count measured
// when it was set; a change that lowers a count lowers its ceiling,
// and none moves up without saying why. Excluded under -race, whose
// runtime allocates on its own and drops sync.Pool entries.
func TestRequestAllocCeilings(t *testing.T) {
	db := core.NewDB(paperex.NewVocabulary(), core.Options{})
	for name, spec := range map[string]string{"NoRefund": "G !refund", "UseNeedsPurchase": "G(use -> F purchase)"} {
		if _, err := db.RegisterLTL(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	broker, err := stream.New(db, stream.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	if _, err := broker.Create(context.Background(), "s", []string{"NoRefund"}); err != nil {
		t.Fatal(err)
	}
	srv := New(db)
	srv.Streams = broker

	cases := []struct {
		name, path string
		body       []byte
		status     int
		ceiling    float64
	}{
		{"query cached", "/v1/query", []byte(`{"spec":"F refund"}`), http.StatusOK, 61},
		{"query no_cache", "/v1/query", []byte(`{"spec":"F refund","no_cache":true}`), http.StatusOK, 165},
		{"push 64 instants", "/v1/streams/s/events", streamMonitorBody(), http.StatusAccepted, 44},
		{"push 1 instant", "/v1/streams/s/events", []byte(`{"events":[["purchase","use"]]}`), http.StatusAccepted, 44},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serve := func() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body)))
				if rec.Code != tc.status {
					t.Fatalf("status %d (%s), want %d", rec.Code, rec.Body, tc.status)
				}
			}
			serve() // fills the compile cache
			got := testing.AllocsPerRun(200, serve)
			broker.WaitIdle()
			t.Logf("%.0f allocations per request (ceiling %.0f)", got, tc.ceiling)
			if got > tc.ceiling {
				t.Errorf("%.0f allocations per request exceed the ceiling of %.0f", got, tc.ceiling)
			}
		})
	}
}
