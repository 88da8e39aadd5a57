package server_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/paperex"
	"contractdb/internal/server"
)

// newDB returns an empty database over the paper's vocabulary.
func newDB(t testing.TB, opts core.Options) *core.DB {
	t.Helper()
	return core.NewDB(paperex.NewVocabulary(), opts)
}

func newTestServer(t *testing.T) (*server.Server, *server.Client, *core.DB) {
	t.Helper()
	db := newDB(t, core.Options{})
	srv := server.New(db)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, server.NewClient(ts.URL, ts.Client()), db
}

func TestHealth(t *testing.T) {
	_, client, _ := newTestServer(t)
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Contracts != 0 || h.Events == 0 {
		t.Errorf("health = %+v", h)
	}
}

func TestRegisterAndQuery(t *testing.T) {
	_, client, _ := newTestServer(t)
	info, err := client.Register("TicketB", paperex.TicketB().String())
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "TicketB" || info.States == 0 || len(info.Events) == 0 {
		t.Errorf("register response = %+v", info)
	}
	if _, err := client.Register("TicketA", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}

	res, err := client.Query("F(missedFlight && X F refund)", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 2 || len(res.Matches) != 2 {
		t.Errorf("query = %+v, want both tickets to match", res)
	}
	scan, err := client.Query("F(missedFlight && X F refund)", "scan")
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Matches) != len(res.Matches) {
		t.Errorf("scan and opt disagree: %v vs %v", scan.Matches, res.Matches)
	}

	// Example 4 through the wire: nobody cites classUpgrade.
	res, err = client.Query("F(dateChange && X F classUpgrade)", "opt")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("under-specified contracts matched over HTTP: %v", res.Matches)
	}
}

func TestContractListingAndGet(t *testing.T) {
	_, client, _ := newTestServer(t)
	if _, err := client.Register("TicketC", paperex.TicketC().String()); err != nil {
		t.Fatal(err)
	}
	list, err := client.Contracts()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "TicketC" || list[0].Spec != "" {
		t.Errorf("list = %+v (spec must be omitted in listings)", list)
	}
	one, err := client.Contract("TicketC")
	if err != nil {
		t.Fatal(err)
	}
	if one.Spec == "" {
		t.Error("single-contract fetch must include the spec")
	}
	if _, err := client.Contract("nope"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("missing contract should 404, got %v", err)
	}
}

func TestRegisterErrorsOverHTTP(t *testing.T) {
	_, client, db := newTestServer(t)
	if _, err := client.Register("bad", "p &&"); err == nil {
		t.Error("syntax error must be surfaced")
	}
	if _, err := client.Register("unsat", "purchase && !purchase"); err == nil {
		t.Error("unsatisfiable contract must be rejected")
	}
	if _, err := client.Register("dup", "G !refund"); err != nil {
		t.Fatal(err)
	}
	_, err := client.Register("dup", "G !refund")
	if err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate registration should 409, got %v", err)
	}
	if _, err := client.Register("", "   "); err == nil {
		t.Error("empty spec must be rejected")
	}

	// A failed log append is the server's fault, whatever the name
	// says: the status follows the error's identity, not its text.
	db.SetOpLog(failingLog{})
	for _, name := range []string{"fresh", "already registered"} {
		_, err := client.Register(name, "G !refund")
		if err == nil || !strings.Contains(err.Error(), "HTTP 500") {
			t.Errorf("register %q with a failing log: %v, want HTTP 500", name, err)
		}
	}
	if _, ok := db.ByName("fresh"); ok {
		t.Error("a registration whose log append failed was applied")
	}
}

// failingLog is a core.OpLog whose every append fails, as a full disk
// would.
type failingLog struct{}

func (failingLog) LogRegister([]byte) error   { return errors.New("disk full") }
func (failingLog) LogUnregister(string) error { return errors.New("disk full") }

func TestQueryErrorsOverHTTP(t *testing.T) {
	_, client, _ := newTestServer(t)
	if _, err := client.Query(")(", ""); err == nil {
		t.Error("query syntax error must be surfaced")
	}
	if _, err := client.Query("F refund", "warp"); err == nil {
		t.Error("unknown mode must be rejected")
	}
}

// TestMetricsRegistrationCosts checks /v1/metrics carries the
// registration costs: index size, the translation count and the
// offline timings.
func TestMetricsRegistrationCosts(t *testing.T) {
	_, client, _ := newTestServer(t)
	if _, err := client.Register("A", paperex.TicketA().String()); err != nil {
		t.Fatal(err)
	}
	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Contracts != 1 || m.IndexNodes == 0 || m.IndexBytes == 0 || m.VocabularyEvents == 0 || m.Translations != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.RegistrationMS < m.IndexBuildMS || m.RegistrationMS < 0 {
		t.Errorf("registration_ms %d < index_build_ms %d", m.RegistrationMS, m.IndexBuildMS)
	}
}

func TestConcurrentHTTPQueries(t *testing.T) {
	_, client, _ := newTestServer(t)
	for name, spec := range map[string]string{
		"A": paperex.TicketA().String(),
		"B": paperex.TicketB().String(),
		"C": paperex.TicketC().String(),
	} {
		if _, err := client.Register(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := client.Query("F(missedFlight && X F refund)", ""); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMethodRouting(t *testing.T) {
	_, client, _ := newTestServer(t)
	// Raw request: DELETE on a GET route must 405.
	req, _ := http.NewRequest(http.MethodDelete, "", nil)
	_ = req
	_ = client
	// The typed client cannot produce this; hit the handler directly.
	db := newDB(t, core.Options{})
	srv := server.New(db)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/contracts", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/contracts = %d, want 405", rec.Code)
	}
}

// TestBodyLimitStatus: a request body over the route's limit answers
// 413, and a malformed one 400, on every decoding route it samples.
func TestBodyLimitStatus(t *testing.T) {
	ts := httptest.NewServer(server.New(newDB(t, core.Options{})))
	t.Cleanup(ts.Close)
	huge := strings.Repeat("a", 2<<20) // over the 1 MiB default limit
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"query over limit", "/v1/query", `{"spec":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{"query malformed", "/v1/query", `{"spec":`, http.StatusBadRequest},
		{"register over limit", "/v1/contracts", `{"name":"big","spec":"` + huge + `"}`, http.StatusRequestEntityTooLarge},
		{"register malformed", "/v1/contracts", `{"name":"x","spec":"G a",}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var apiErr server.Error
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatalf("error body: %v", err)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, apiErr.Error, tc.want)
			}
		})
	}
}
