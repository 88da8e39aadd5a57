package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/paperex"
	"contractdb/internal/server"
)

// postQuery drives the handler directly with a caller-controlled
// request context, which is how a client-side timeout or disconnect
// reaches the evaluation.
func postQuery(t *testing.T, srv *server.Server, ctx context.Context, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func registerTickets(t *testing.T, db *core.DB) {
	t.Helper()
	for name, spec := range map[string]string{
		"A": paperex.TicketA().String(),
		"B": paperex.TicketB().String(),
		"C": paperex.TicketC().String(),
	} {
		if _, err := db.RegisterLTL(name, spec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryClientCanceled asserts a request whose context is already
// canceled — a client that timed out or hung up — returns promptly
// with the cancellation error instead of running the search.
func TestQueryClientCanceled(t *testing.T) {
	db := newDB(t, core.Options{})
	registerTickets(t, db)
	srv := server.New(db)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rec := postQuery(t, srv, ctx, `{"spec":"F(missedFlight && X F refund)"}`)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("canceled query took %v; the search was not aborted", elapsed)
	}
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want %d; body: %s", rec.Code, http.StatusRequestTimeout, rec.Body)
	}
	var apiErr server.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(apiErr.Error, "canceled") {
		t.Fatalf("error %q does not mention cancellation", apiErr.Error)
	}
	if got := db.Stats().Queries.Canceled; got != 1 {
		t.Fatalf("canceled metric = %d, want 1", got)
	}
}

// TestQueryServerTimeout asserts the server-wide QueryTimeout bounds
// evaluations even when the client would wait forever.
func TestQueryServerTimeout(t *testing.T) {
	db := newDB(t, core.Options{})
	registerTickets(t, db)
	srv := server.New(db)
	srv.QueryTimeout = time.Nanosecond // expires before the first kernel step

	rec := postQuery(t, srv, nil, `{"spec":"F(missedFlight && X F refund)"}`)
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want %d; body: %s", rec.Code, http.StatusRequestTimeout, rec.Body)
	}
}

// TestQueryStepBudgetOverHTTP asserts both the per-request budget and
// the server default turn a too-expensive search into a 503, and that
// -1 opts back out of the server default.
func TestQueryStepBudgetOverHTTP(t *testing.T) {
	db := newDB(t, core.Options{})
	registerTickets(t, db)
	srv := server.New(db)
	srv.StepBudget = 1

	cases := []struct {
		name string
		body string
		code int
	}{
		{"server default budget", `{"spec":"F(missedFlight && X F refund)"}`, http.StatusServiceUnavailable},
		{"request budget", `{"spec":"F(missedFlight && X F refund)","step_budget":1}`, http.StatusServiceUnavailable},
		{"request opts out", `{"spec":"F(missedFlight && X F refund)","step_budget":-1}`, http.StatusOK},
	}
	for _, tc := range cases {
		rec := postQuery(t, srv, nil, tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status = %d, want %d; body: %s", tc.name, rec.Code, tc.code, rec.Body)
		}
	}
}

// TestFindAnyOverHTTP asserts the find-any flag returns a (non-empty)
// subset of the full match set.
func TestFindAnyOverHTTP(t *testing.T) {
	_, client, db := newTestServer(t)
	registerTickets(t, db)
	full, err := client.Query("F(missedFlight && X F refund)", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) == 0 {
		t.Fatal("workload produced no matches; test is vacuous")
	}
	any, err := client.QueryRequest(server.QueryRequest{Spec: "F(missedFlight && X F refund)", FindAny: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(any.Matches) == 0 || len(any.Matches) > len(full.Matches) {
		t.Fatalf("find-any returned %v, full set %v", any.Matches, full.Matches)
	}
	want := make(map[string]bool)
	for _, m := range full.Matches {
		want[m] = true
	}
	for _, m := range any.Matches {
		if !want[m] {
			t.Fatalf("find-any returned non-match %s", m)
		}
	}
}

// TestMetricsEndpoint is the table-driven contract for /v1/metrics:
// one scenario per traffic shape, each asserting on the snapshot's
// counters.
func TestMetricsEndpoint(t *testing.T) {
	cases := []struct {
		name  string
		drive func(t *testing.T, client *server.Client, db *core.DB)
		check func(t *testing.T, m server.MetricsResponse)
	}{
		{
			name:  "fresh database",
			drive: func(t *testing.T, client *server.Client, db *core.DB) {},
			check: func(t *testing.T, m server.MetricsResponse) {
				if m.Contracts != 0 || m.Queries.Queries != 0 {
					t.Errorf("fresh metrics = %+v", m)
				}
			},
		},
		{
			name: "registrations only",
			drive: func(t *testing.T, client *server.Client, db *core.DB) {
				registerTickets(t, db)
			},
			check: func(t *testing.T, m server.MetricsResponse) {
				if m.Contracts != 3 {
					t.Errorf("contracts = %d, want 3", m.Contracts)
				}
				if m.ProjectionRows == 0 || m.IndexNodes == 0 {
					t.Errorf("registration gauges empty: %+v", m)
				}
				if m.Queries.Queries != 0 {
					t.Errorf("queries = %d, want 0", m.Queries.Queries)
				}
			},
		},
		{
			name: "successful queries",
			drive: func(t *testing.T, client *server.Client, db *core.DB) {
				registerTickets(t, db)
				for i := 0; i < 3; i++ {
					if _, err := client.Query("F(missedFlight && X F refund)", ""); err != nil {
						t.Fatal(err)
					}
				}
			},
			check: func(t *testing.T, m server.MetricsResponse) {
				if m.Queries.Queries != 3 {
					t.Errorf("queries = %d, want 3", m.Queries.Queries)
				}
				// Every run passes the translate stage, but only the
				// first compiles; the repeats reuse its automaton.
				if m.Queries.Translate.Count != 3 || m.Queries.QueryCacheMisses != 1 || m.Queries.QueryCacheHits != 2 {
					t.Errorf("translate count = %d, compile misses/hits = %d/%d, want 3 and 1/2",
						m.Queries.Translate.Count, m.Queries.QueryCacheMisses, m.Queries.QueryCacheHits)
				}
				if m.Caches.QueryCacheLen != 1 {
					t.Errorf("cache gauges = %+v, want one compiled entry", m.Caches)
				}
				if m.Queries.CandidatesScanned == 0 {
					t.Error("no candidates scanned")
				}
				if m.Queries.Permitted == 0 {
					t.Error("no permits accounted")
				}
				if m.Queries.KernelSteps == 0 {
					t.Error("no kernel steps accounted")
				}
			},
		},
		{
			name: "aborted queries are classified",
			drive: func(t *testing.T, client *server.Client, db *core.DB) {
				registerTickets(t, db)
				if _, err := client.QueryRequest(server.QueryRequest{Spec: "F refund", StepBudget: 1}); err == nil {
					t.Fatal("budget 1 should abort")
				}
			},
			check: func(t *testing.T, m server.MetricsResponse) {
				if m.Queries.BudgetExceeded != 1 {
					t.Errorf("budget_exceeded = %d, want 1", m.Queries.BudgetExceeded)
				}
				if m.Queries.Errored != 1 {
					t.Errorf("errored = %d, want 1", m.Queries.Errored)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, client, db := newTestServer(t)
			tc.drive(t, client, db)
			m, err := client.Metrics()
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, m)
		})
	}
}
