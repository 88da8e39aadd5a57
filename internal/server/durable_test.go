package server_test

import (
	"net/http/httptest"
	"strings"
	"testing"

	"contractdb/internal/paperex"
	"contractdb/internal/server"
	"contractdb/internal/store"
)

func TestUnregisterEndpoint(t *testing.T) {
	_, client, db := newTestServer(t)

	if _, err := client.Register("TicketA", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register("TicketB", paperex.TicketB().String()); err != nil {
		t.Fatal(err)
	}

	if err := client.Unregister("TicketA"); err != nil {
		t.Fatalf("unregister: %v", err)
	}
	if db.Len() != 1 {
		t.Errorf("database holds %d contracts, want 1", db.Len())
	}
	if _, ok := db.ByName("TicketA"); ok {
		t.Error("TicketA still registered after DELETE")
	}

	err := client.Unregister("TicketA")
	if err == nil {
		t.Fatal("deleting a missing contract succeeded")
	}
	if !strings.Contains(err.Error(), "404") {
		t.Errorf("missing contract: %v, want HTTP 404", err)
	}
}

func TestCheckpointWithoutStore(t *testing.T) {
	_, client, _ := newTestServer(t)
	_, err := client.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint succeeded with no store configured")
	}
	if !strings.Contains(err.Error(), "501") {
		t.Errorf("got %v, want HTTP 501", err)
	}
}

// TestDurableServer is the end-to-end broker deployment: a store-backed
// server takes registrations and removals over HTTP, checkpoints on
// demand, surfaces durability metrics — and a restart recovers exactly
// what was acknowledged.
func TestDurableServer(t *testing.T) {
	dir := t.TempDir()
	voc := paperex.NewVocabulary()
	cfg := store.Config{Events: voc.Names()}
	st, err := store.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	srv := server.New(st.DB())
	srv.Checkpoint = st.Checkpoint
	srv.Durability = st.Metrics()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := server.NewClient(ts.URL, ts.Client())

	if _, err := client.Register("TicketA", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register("TicketB", paperex.TicketB().String()); err != nil {
		t.Fatal(err)
	}
	if err := client.Unregister("TicketB"); err != nil {
		t.Fatal(err)
	}

	cp, err := client.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Three logged ops starting at seq 1 put the boundary at 4.
	if cp.Boundary != 4 {
		t.Errorf("checkpoint boundary = %d, want 4", cp.Boundary)
	}

	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Durability == nil {
		t.Fatal("durable server reports no durability metrics")
	}
	if m.Durability.WALAppends != 3 {
		t.Errorf("wal_appends = %d, want 3", m.Durability.WALAppends)
	}
	if m.Durability.Checkpoints == 0 {
		t.Error("checkpoint counter did not move")
	}

	// Restart: the acknowledged state (TicketA only) comes back.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Recovery.Clean {
		t.Errorf("recovery not clean: %+v", st2.Recovery)
	}
	if st2.DB().Len() != 1 {
		t.Fatalf("recovered %d contracts, want 1", st2.DB().Len())
	}
	if _, ok := st2.DB().ByName("TicketA"); !ok {
		t.Error("TicketA lost across restart")
	}
}
