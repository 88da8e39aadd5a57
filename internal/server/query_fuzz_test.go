package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"contractdb/internal/core"
	"contractdb/internal/paperex"
	"contractdb/internal/server"
)

// FuzzQueryBody: any body posted to /v1/query answers 200, 400, 408,
// 413 or 503, never panics, and leaves the vocabulary as it found it:
// a query citing an event no contract registered is refused, not
// interned. The seeds are the bodies the query tests send, plus one
// citing an unknown event.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"spec":"F refund"}`,
		`{"spec":"F refund","no_cache":true}`,
		`{"spec":"F(missedFlight && X F refund)"}`,
		`{"spec":"F(missedFlight && X F refund)","step_budget":1}`,
		`{"spec":"F(missedFlight && X F refund)","step_budget":-1}`,
		`{"spec":"F(missedFlight && X F refund)","find_any":true}`,
		`{"spec":"F(missedFlight && X F refund)","mode":"scan"}`,
		`{"spec":"F(dateChange && X F classUpgrade)","mode":"opt"}`,
		`{"spec":"F refund","trace":true}`,
		`{"spec":"F refund","mode":"bogus"}`,
		`{"spec":"F zz0 && G !refund"}`,
		`{"spec":`,
	} {
		f.Add([]byte(seed))
	}
	db := core.NewDB(paperex.NewVocabulary(), core.Options{})
	for name, spec := range map[string]string{"TicketA": paperex.TicketA().String(), "TicketB": paperex.TicketB().String()} {
		if _, err := db.RegisterLTL(name, spec); err != nil {
			f.Fatal(err)
		}
	}
	srv := server.New(db)
	srv.QueryTimeout = time.Second
	srv.StepBudget = 1 << 20
	events := db.Vocabulary().Len()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestTimeout,
			http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if got := db.Vocabulary().Len(); got != events {
			t.Fatalf("body %q grew the vocabulary from %d to %d events", body, events, got)
		}
	})
}
