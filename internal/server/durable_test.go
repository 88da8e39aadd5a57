package server_test

import (
	"net/http/httptest"
	"slices"
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

// TestFindAllOrderStable: the engine answers in contract-id order,
// which depends on the registration history; a served find-all and the
// contract listing must come back in name order anyway — after
// registrations out of name order, an unregister and a later
// registration, and again after the store reopens.
func TestFindAllOrderStable(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Events: paperex.NewVocabulary().Names()}
	specs := map[string]string{
		"Mango": "G(purchase -> F refund)", "Cherry": "F refund", "Xigua": "G(use -> F refund)",
		"Apple": "G !refund", "Kiwi": "F(purchase & F refund)", "Fig": "G(refund -> F use)",
		"Banana": "F refund & G(use -> F purchase)",
	}
	want := []string{"Banana", "Fig", "Kiwi", "Mango", "Xigua"}

	serve := func() (*store.Store, *server.Client) {
		st, err := store.Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.DB().SetParallelism(4)
		ts := httptest.NewServer(server.New(st.DB()))
		t.Cleanup(ts.Close)
		return st, server.NewClient(ts.URL, ts.Client())
	}
	check := func(when string, client *server.Client) {
		t.Helper()
		for _, mode := range []string{"opt", "scan"} {
			for range 3 {
				res, err := client.QueryRequest(server.QueryRequest{Spec: "F refund", Mode: mode, NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Matches, want) {
					t.Fatalf("%s, mode %s: matches %v, want %v", when, mode, res.Matches, want)
				}
			}
		}
		list, err := client.Contracts()
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(list))
		for i, c := range list {
			names[i] = c.Name
		}
		if !slices.IsSorted(names) || len(names) != len(want)+1 {
			t.Fatalf("%s: contract listing %v is not the %d names in order", when, names, len(want)+1)
		}
	}

	st, client := serve()
	for _, name := range []string{"Mango", "Cherry", "Xigua", "Apple", "Kiwi", "Fig"} {
		if _, err := client.Register(name, specs[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Unregister("Cherry"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register("Banana", specs["Banana"]); err != nil {
		t.Fatal(err)
	}
	check("before reopening", client)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, client = serve()
	defer st.Close()
	check("after reopening", client)
}
