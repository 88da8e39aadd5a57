package core_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"contractdb/internal/core"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/ltltest"
	"contractdb/internal/paperex"
)

func newPaperDB(t *testing.T) *core.DB {
	t.Helper()
	db := core.NewDB(paperex.NewVocabulary(), core.Options{})
	if _, err := db.Register("TicketA", paperex.TicketA()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Register("TicketB", paperex.TicketB()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Register("TicketC", paperex.TicketC()); err != nil {
		t.Fatal(err)
	}
	return db
}

func names(r *core.Result) map[string]bool {
	out := map[string]bool{}
	for _, c := range r.Matches {
		out[c.Name] = true
	}
	return out
}

// TestBrokerRunningExample drives the whole system on the paper's
// running example through the public pipeline.
func TestBrokerRunningExample(t *testing.T) {
	db := newPaperDB(t)
	res, err := db.Query(paperex.QueryMissedRefundOrChange())
	if err != nil {
		t.Fatal(err)
	}
	got := names(res)
	if !got["TicketA"] || !got["TicketB"] || got["TicketC"] {
		t.Errorf("missed-flight query matched %v, want A and B only", got)
	}
	res, err = db.Query(paperex.QueryUpgradeAfterChange())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("class-upgrade query matched %v, want none (Example 4)", names(res))
	}
	res, err = db.Query(paperex.QueryQ3())
	if err != nil {
		t.Fatal(err)
	}
	got = names(res)
	if !got["TicketB"] || got["TicketA"] || got["TicketC"] {
		t.Errorf("Q3 matched %v, want B only", got)
	}
}

// TestModesAgree: every optimization mode must return the same
// matches on the same database.
func TestModesAgree(t *testing.T) {
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 11)
	db := core.NewDB(voc, core.Options{ProjectionBudget: 2})
	registered := 0
	for registered < 30 {
		if _, err := db.Register("", gen.Specification(4)); err != nil {
			continue // occasionally unsatisfiable; skip
		}
		registered++
	}
	modes := []core.Mode{
		core.Unoptimized,
		{Prefilter: true},
		{Bisim: true},
		core.Optimized,
	}
	for i := 0; i < 25; i++ {
		q := gen.Specification(2)
		var base map[string]bool
		for _, m := range modes {
			res, err := db.QueryMode(q, m)
			if err != nil {
				t.Fatal(err)
			}
			got := names(res)
			if base == nil {
				base = got
				continue
			}
			if len(got) != len(base) {
				t.Fatalf("mode %+v returned %v, unoptimized returned %v (query %s)", m, got, base, q)
			}
			for n := range base {
				if !got[n] {
					t.Fatalf("mode %+v lost match %s (query %s)", m, n, q)
				}
			}
		}
	}
}

func TestRegisterErrors(t *testing.T) {
	db := newPaperDB(t)
	if _, err := db.Register("TicketA", paperex.TicketA()); !errors.Is(err, core.ErrDuplicateName) {
		t.Errorf("duplicate name: %v, want ErrDuplicateName", err)
	}
	if _, err := db.RegisterLTL("bad", "p &&"); err == nil {
		t.Error("parse error must be reported")
	}
	if _, err := db.RegisterLTL("unsat", "purchase && !purchase"); err == nil {
		t.Error("unsatisfiable contract must be rejected")
	}
	if db.Len() != 3 {
		t.Errorf("failed registrations must not grow the database: len=%d", db.Len())
	}
}

func TestByName(t *testing.T) {
	db := newPaperDB(t)
	c, ok := db.ByName("TicketB")
	if !ok || c.Name != "TicketB" {
		t.Fatal("ByName(TicketB) failed")
	}
	if _, ok := db.ByName("nope"); ok {
		t.Fatal("ByName(nope) should miss")
	}
	if c.Events().IsEmpty() {
		t.Error("contract cites no events?")
	}
}

func TestQueryStats(t *testing.T) {
	db := newPaperDB(t)
	res, err := db.Query(paperex.QueryRefundAfterMiss())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Total != 3 {
		t.Errorf("Total = %d, want 3", s.Total)
	}
	if s.Candidates > s.Total || s.Checked != s.Candidates {
		t.Errorf("inconsistent stats: %+v", s)
	}
	if s.Permitted != len(res.Matches) {
		t.Errorf("Permitted = %d, matches = %d", s.Permitted, len(res.Matches))
	}
	if s.Elapsed() <= 0 {
		t.Error("Elapsed not measured")
	}
	// Ticket C never mentions refund positively: the prefilter must
	// have pruned it.
	if s.Candidates == s.Total {
		t.Errorf("prefilter pruned nothing: candidates=%d", s.Candidates)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := newPaperDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("loaded %d contracts, want %d", db2.Len(), db.Len())
	}
	queries := []string{
		"F(missedFlight && X F(refund || dateChange))",
		"F(dateChange && X F classUpgrade)",
		"F(dateChange && X F(classUpgrade || refund))",
		"F refund",
		"G !dateChange",
	}
	for _, src := range queries {
		r1, err := db.QueryLTL(src)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := db2.QueryLTL(src)
		if err != nil {
			t.Fatal(err)
		}
		n1, n2 := names(r1), names(r2)
		if len(n1) != len(n2) {
			t.Fatalf("query %s: results changed after reload: %v vs %v", src, n1, n2)
		}
		for n := range n1 {
			if !n2[n] {
				t.Fatalf("query %s: match %s lost after reload", src, n)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := core.Load(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage input must fail to load")
	}
}

// TestConcurrentQueries: queries under a read lock share lazy
// projection caches; hammer them from many goroutines under the race
// detector.
func TestConcurrentQueries(t *testing.T) {
	db := newPaperDB(t)
	queries := []string{
		"F refund",
		"F(missedFlight && X F refund)",
		"F(dateChange && X F(classUpgrade || refund))",
		"G !dateChange",
		"F(purchase && X F use)",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < 20; i++ {
				if _, err := db.QueryLTL(queries[rng.Intn(len(queries))]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRegistrationStats: offline-cost counters must be populated.
func TestRegistrationStats(t *testing.T) {
	db := newPaperDB(t)
	rs := db.RegistrationStats()
	if rs.Contracts != 3 {
		t.Errorf("Contracts = %d, want 3", rs.Contracts)
	}
	if rs.Total <= 0 || rs.IndexNodes == 0 || rs.IndexBytes == 0 || rs.ProjectionRows == 0 {
		t.Errorf("stats not populated: %+v", rs)
	}
}

// TestDisabledProjectionBudget: a negative budget must still answer
// correctly through the lazy path.
func TestDisabledProjectionBudget(t *testing.T) {
	db := core.NewDB(paperex.NewVocabulary(), core.Options{ProjectionBudget: -1})
	if _, err := db.Register("TicketB", paperex.TicketB()); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(paperex.QueryQ3())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 {
		t.Errorf("Q3 should match TicketB, got %v", names(res))
	}
}

// TestRandomWorkloadAgainstDirectCheck compares the full pipeline
// against direct unindexed permission checks on random data.
func TestRandomWorkloadAgainstDirectCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	voc := datagen.NewVocabulary()
	db := core.NewDB(voc, core.Options{ProjectionBudget: 2})
	cfg := ltltest.Config{Atoms: voc.Names()[:6], MaxDepth: 4}
	registered := 0
	for registered < 20 {
		if _, err := db.Register("", ltltest.Expr(rng, cfg)); err != nil {
			continue
		}
		registered++
	}
	qcfg := ltltest.Config{Atoms: voc.Names()[:4], MaxDepth: 3}
	for i := 0; i < 30; i++ {
		q := ltltest.Expr(rng, qcfg)
		opt, err := db.QueryMode(q, core.Optimized)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := db.QueryMode(q, core.Unoptimized)
		if err != nil {
			t.Fatal(err)
		}
		a, b := names(opt), names(plain)
		if len(a) != len(b) {
			t.Fatalf("query %s: optimized %v vs unoptimized %v", q, a, b)
		}
		for n := range b {
			if !a[n] {
				t.Fatalf("query %s: optimized lost %s", q, n)
			}
		}
	}
}

func TestMaxAutomatonStates(t *testing.T) {
	db := core.NewDB(paperex.NewVocabulary(), core.Options{MaxAutomatonStates: 2})
	if _, err := db.Register("big", paperex.TicketC()); err == nil {
		t.Error("oversized automaton must be rejected when a cap is set")
	}
	if _, err := db.RegisterLTL("tiny", "G !refund"); err != nil {
		t.Errorf("1-state automaton rejected: %v", err)
	}
}

// TestQueryObligation: obligation is the deontic dual of permission.
// Ticket C guarantees "no refunds ever"; Tickets A and B do not.
func TestQueryObligation(t *testing.T) {
	db := newPaperDB(t)
	res, err := db.QueryObligationLTL("G !refund")
	if err != nil {
		t.Fatal(err)
	}
	got := names(res)
	if !got["TicketC"] || got["TicketA"] || got["TicketB"] {
		t.Errorf("G !refund obliged by %v, want TicketC only", got)
	}
	// Every ticket guarantees at most one purchase (common clause C1).
	res, err = db.QueryObligationLTL("G(purchase -> X(!F purchase))")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Errorf("single-purchase clause obliged by %d contracts, want all 3", len(res.Matches))
	}
	// Nothing guarantees that a refund *happens*.
	res, err = db.QueryObligationLTL("F refund")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("F refund obliged by %v, want none", names(res))
	}
}

// TestObligationPermissionDuality on random data: obliges(q) must
// equal !permits(!q) by construction, and an obliged query that the
// contract can express must also be permitted (a satisfiable contract
// has some run, and all its runs satisfy q).
func TestObligationPermissionDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	voc := datagen.NewVocabulary()
	db := core.NewDB(voc, core.Options{})
	gen := datagen.New(voc, 3)
	for db.Len() < 15 {
		db.Register("", gen.Specification(4))
	}
	cfg := ltltest.Config{Atoms: voc.Names()[:4], MaxDepth: 3}
	for i := 0; i < 25; i++ {
		q := ltltest.Expr(rng, cfg)
		obliged, err := db.QueryObligation(q)
		if err != nil {
			t.Fatal(err)
		}
		permittedNeg, err := db.QueryMode(ltl.Not(q), core.Unoptimized)
		if err != nil {
			t.Fatal(err)
		}
		inNeg := names(permittedNeg)
		for _, c := range obliged.Matches {
			if inNeg[c.Name] {
				t.Fatalf("contract %s both obliges %s and permits its negation", c.Name, q)
			}
		}
		if len(obliged.Matches)+len(permittedNeg.Matches) != db.Len() {
			t.Fatalf("obligation/permission of negation must partition the database: %d + %d != %d",
				len(obliged.Matches), len(permittedNeg.Matches), db.Len())
		}
	}
}
