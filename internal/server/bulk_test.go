package server_test

import (
	"strings"
	"testing"

	"contractdb/internal/paperex"
	"contractdb/internal/server"
)

func TestBulkRegister(t *testing.T) {
	_, client, db := newTestServer(t)
	resp, err := client.RegisterBulk([]server.RegisterRequest{
		{Name: "TicketA", Spec: paperex.TicketA().String()},
		{Name: "TicketB", Spec: paperex.TicketB().String()},
		{Name: "TicketC", Spec: paperex.TicketC().String()},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Registered != 3 || resp.Failed != 0 {
		t.Fatalf("bulk register = %+v, want 3 registered", resp)
	}
	for i, want := range []string{"TicketA", "TicketB", "TicketC"} {
		if resp.Results[i].Name != want || resp.Results[i].Error != "" {
			t.Errorf("result %d = %+v, want %s", i, resp.Results[i], want)
		}
	}
	if db.Len() != 3 {
		t.Errorf("database holds %d contracts, want 3", db.Len())
	}

	// The batch path answers queries like per-contract registration.
	res, err := client.Query("F(missedFlight && X F refund)", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Errorf("query after bulk register matched %v, want TicketA and TicketB", res.Matches)
	}
}

// TestBulkRegisterPartialFailure: per-entry outcomes come back in
// input order; a duplicate name fails its entry without sinking the
// batch.
func TestBulkRegisterPartialFailure(t *testing.T) {
	_, client, _ := newTestServer(t)
	if _, err := client.Register("TicketA", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	resp, err := client.RegisterBulk([]server.RegisterRequest{
		{Name: "TicketA", Spec: paperex.TicketA().String()}, // duplicate
		{Name: "TicketB", Spec: paperex.TicketB().String()},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Registered != 1 || resp.Failed != 1 {
		t.Fatalf("bulk register = %+v, want 1 registered 1 failed", resp)
	}
	if resp.Results[0].Error == "" || resp.Results[1].Name != "TicketB" {
		t.Errorf("results = %+v, want entry 0 failed and entry 1 registered", resp.Results)
	}
}

// TestBulkRegisterParseErrorRejectsBatch: a malformed spec fails the
// whole request up front (400) — nothing registers, so the client can
// fix and resubmit without tracking partial state.
func TestBulkRegisterParseErrorRejectsBatch(t *testing.T) {
	_, client, db := newTestServer(t)
	_, err := client.RegisterBulk([]server.RegisterRequest{
		{Name: "ok", Spec: paperex.TicketA().String()},
		{Name: "bad", Spec: "G(("},
	}, 0)
	if err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("err = %v, want HTTP 400", err)
	}
	if db.Len() != 0 {
		t.Errorf("parse failure still registered %d contracts", db.Len())
	}
}

// TestBulkRegisterAllFailedStatus: with no entry registered, the status
// names the cause — 409 when every entry is a duplicate, 400 for an
// unsatisfiable entry among duplicates, and 500 as soon as one entry
// hit a durability failure. Partial success stays 201.
func TestBulkRegisterAllFailedStatus(t *testing.T) {
	_, client, db := newTestServer(t)
	if _, err := client.Register("TicketA", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	dup := server.RegisterRequest{Name: "TicketA", Spec: paperex.TicketA().String()}
	unsat := server.RegisterRequest{Name: "unsat", Spec: "purchase && !purchase"}
	fresh := server.RegisterRequest{Name: "TicketB", Spec: paperex.TicketB().String()}

	expect := func(what string, batch []server.RegisterRequest, want string) {
		t.Helper()
		_, err := client.RegisterBulk(batch, 0)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %s", what, err, want)
		}
	}
	expect("all duplicates", []server.RegisterRequest{dup, dup}, "HTTP 409")
	expect("duplicate and unsatisfiable", []server.RegisterRequest{dup, unsat}, "HTTP 400")

	db.SetOpLog(failingLog{})
	expect("durability failure among duplicates", []server.RegisterRequest{dup, fresh}, "HTTP 500")
	if _, ok := db.ByName("TicketB"); ok {
		t.Error("an entry whose log append failed was applied")
	}

	db.SetOpLog(nil)
	if _, err := client.RegisterBulk([]server.RegisterRequest{dup, fresh}, 0); err != nil {
		t.Errorf("partial success: %v, want 201", err)
	}
}
