package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/paperex"
	"contractdb/internal/server"
	"contractdb/internal/stream"
)

// FuzzStreamCreateBody: any body posted to /v1/streams answers 201,
// 400, 404, 409 or 413 (501 on a server without streaming), never
// panics, and a refused body opens no stream. A stream the body opens
// is closed again, so every body meets the same broker: one holding
// the stream "taken".
func FuzzStreamCreateBody(f *testing.F) {
	for _, seed := range []string{
		`{"name":"alice","contracts":["TicketA","TicketB"]}`,
		`{"name":"bob","contracts":["TicketA"]}`,
		`{"name":"taken","contracts":["TicketA"]}`,
		`{"name":"carol","contracts":["NoSuchContract"]}`,
		`{"name":"dave","contracts":[]}`,
		`{"name":"","contracts":["TicketA"]}`,
		`{"name":"a/b","contracts":["TicketA"]}`,
		`{"name":"eve","contracts":["TicketA","TicketA"]}`,
		`{"name":"frank","contracts":"TicketA"}`,
		`{"name":7,"contracts":["TicketA"]}`,
		`{"contracts":["TicketA"]}`,
		`{"name":"gina","contracts":["TicketA"],"extra":1}`,
		`null`,
		`{"name":"hal","contracts":["TicketA"]`,
	} {
		f.Add([]byte(seed))
	}
	db := core.NewDB(paperex.NewVocabulary(), core.Options{})
	for name, spec := range map[string]string{"TicketA": paperex.TicketA().String(), "TicketB": paperex.TicketB().String()} {
		if _, err := db.RegisterLTL(name, spec); err != nil {
			f.Fatal(err)
		}
	}
	broker, err := stream.New(db, stream.Config{Shards: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { broker.Close() })
	srv := server.New(db)
	srv.Streams = broker
	if _, err := broker.Create(context.Background(), "taken", []string{"TicketA"}); err != nil {
		f.Fatal(err)
	}
	disabled := server.New(db)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		disabled.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams", bytes.NewReader(body)))
		if rec.Code != http.StatusNotImplemented {
			t.Fatalf("status %d without streaming for body %q: %s", rec.Code, body, rec.Body)
		}
		before := len(broker.List())
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/streams", bytes.NewReader(body)))
		after := broker.List()
		switch rec.Code {
		case http.StatusCreated:
			if len(after) != before+1 {
				t.Fatalf("body %q answered 201 but the broker holds %d streams, had %d", body, len(after), before)
			}
			for _, info := range after {
				if info.Name != "taken" {
					if err := broker.Delete(context.Background(), info.Name); err != nil {
						t.Fatal(err)
					}
				}
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
			if len(after) != before {
				t.Fatalf("refused body %q (status %d) changed the broker from %d to %d streams", body, rec.Code, before, len(after))
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
