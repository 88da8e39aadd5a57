package ltl2ba_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"contractdb/internal/datagen"
	"contractdb/internal/dwyer"

	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/vocab"
)

func newVoc() *vocab.Vocabulary { return vocab.MustFromNames("p", "q", "r", "s") }

// TestTranslateMatchesEvaluator is the package's core property: the
// automaton accepts exactly the runs satisfying the formula. Each
// random formula is checked against many random lasso runs.
func TestTranslateMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := ltltest.Config{Atoms: []string{"p", "q", "r"}, MaxDepth: 4}
	voc := newVoc()
	for i := 0; i < 400; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatalf("Translate(%s): %v", f, err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Translate(%s) produced invalid automaton: %v", f, err)
		}
		for j := 0; j < 25; j++ {
			run := ltltest.Lasso(rng, 3, 3, 3)
			want := run.Eval(voc, f)
			got := a.AcceptsLasso(run)
			if got != want {
				t.Fatalf("BA(%s) on run prefix=%v cycle=%v: accepts=%v, evaluator says %v\nautomaton:\n%s",
					f, run.Prefix, run.Cycle, got, want, a.EncodeString(voc))
			}
		}
	}
}

// TestTranslateFixed spot-checks hand-picked formulas with known
// satisfying and violating runs.
func TestTranslateFixed(t *testing.T) {
	voc := newVoc()
	p, _ := voc.SetOf("p")
	q, _ := voc.SetOf("q")
	pq, _ := voc.SetOf("p", "q")
	none := vocab.Set(0)

	cases := []struct {
		formula string
		run     ltl.Lasso
		want    bool
	}{
		{"G p", ltl.Lasso{Cycle: []vocab.Set{p}}, true},
		{"G p", ltl.Lasso{Cycle: []vocab.Set{p, none}}, false},
		{"F q", ltl.Lasso{Prefix: []vocab.Set{p, p}, Cycle: []vocab.Set{q}}, true},
		{"F q", ltl.Lasso{Cycle: []vocab.Set{p}}, false},
		{"p U q", ltl.Lasso{Prefix: []vocab.Set{p, p}, Cycle: []vocab.Set{q}}, true},
		{"p U q", ltl.Lasso{Prefix: []vocab.Set{p, none}, Cycle: []vocab.Set{q}}, false},
		{"G(p -> X q)", ltl.Lasso{Cycle: []vocab.Set{p, q}}, true},
		{"G(p -> X q)", ltl.Lasso{Cycle: []vocab.Set{p, none}}, false},
		{"G F p", ltl.Lasso{Cycle: []vocab.Set{none, none, p}}, true},
		{"G F p", ltl.Lasso{Prefix: []vocab.Set{p}, Cycle: []vocab.Set{none}}, false},
		{"F G p", ltl.Lasso{Prefix: []vocab.Set{none}, Cycle: []vocab.Set{p}}, true},
		{"F G p", ltl.Lasso{Cycle: []vocab.Set{p, none}}, false},
		{"X X p", ltl.Lasso{Prefix: []vocab.Set{none, none}, Cycle: []vocab.Set{p}}, true},
		{"p W q", ltl.Lasso{Cycle: []vocab.Set{p}}, true},
		{"p B q", ltl.Lasso{Prefix: []vocab.Set{p}, Cycle: []vocab.Set{q}}, true},
		{"p B q", ltl.Lasso{Prefix: []vocab.Set{q}, Cycle: []vocab.Set{p}}, false},
		{"G(p && q)", ltl.Lasso{Cycle: []vocab.Set{pq}}, true},
		{"!p && X !p", ltl.Lasso{Cycle: []vocab.Set{none}}, true},
	}
	for _, c := range cases {
		f := ltl.MustParse(c.formula)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatalf("Translate(%s): %v", c.formula, err)
		}
		if got := a.AcceptsLasso(c.run); got != c.want {
			t.Errorf("BA(%s) on prefix=%v cycle=%v: accepts=%v, want %v",
				c.formula, c.run.Prefix, c.run.Cycle, got, c.want)
		}
	}
}

// TestWitnessSatisfiesFormula: any accepting lasso the automaton can
// exhibit must satisfy the source formula per the evaluator, and
// emptiness must agree with unsatisfiability on simple cases.
func TestWitnessSatisfiesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := ltltest.Config{Atoms: []string{"p", "q", "r"}, MaxDepth: 4}
	voc := newVoc()
	sat, unsat := 0, 0
	for i := 0; i < 500; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatalf("Translate(%s): %v", f, err)
		}
		run, ok := a.FindAcceptingLasso()
		if !ok {
			unsat++
			continue
		}
		sat++
		if !run.Eval(voc, f) {
			t.Fatalf("witness run prefix=%v cycle=%v does not satisfy %s\nautomaton:\n%s",
				run.Prefix, run.Cycle, f, a.EncodeString(voc))
		}
	}
	if sat == 0 || unsat == 0 {
		t.Logf("coverage note: sat=%d unsat=%d", sat, unsat)
	}
}

func TestUnsatisfiableFormulasAreEmpty(t *testing.T) {
	voc := newVoc()
	for _, src := range []string{
		"p && !p",
		"false",
		"G p && F !p",
		"(G F p) && (F G !p)",
		"X p && X !p",
		"p U q && G !q",
	} {
		a, err := ltl2ba.Translate(voc, ltl.MustParse(src))
		if err != nil {
			t.Fatalf("Translate(%s): %v", src, err)
		}
		if !a.IsEmpty() {
			run, _ := a.FindAcceptingLasso()
			t.Errorf("BA(%s) should be empty; accepts prefix=%v cycle=%v", src, run.Prefix, run.Cycle)
		}
	}
}

func TestSatisfiableFormulasAreNonEmpty(t *testing.T) {
	voc := newVoc()
	for _, src := range []string{
		"true",
		"p",
		"G(p -> X(!F p))",
		"G !p",
		"p U (q U r)",
		"G(p -> F q) && G F p",
	} {
		a, err := ltl2ba.Translate(voc, ltl.MustParse(src))
		if err != nil {
			t.Fatalf("Translate(%s): %v", src, err)
		}
		if a.IsEmpty() {
			t.Errorf("BA(%s) should be non-empty", src)
		}
	}
}

// TestEventsField: the Events set must list all cited events even when
// simplification drops them from every label.
func TestEventsField(t *testing.T) {
	voc := newVoc()
	a, err := ltl2ba.Translate(voc, ltl.MustParse("G(p || !p) && F q"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := voc.SetOf("p", "q")
	if a.Events != want {
		t.Errorf("Events = %s, want %s", a.Events.Format(voc), want.Format(voc))
	}
}

func TestVocabularyGrows(t *testing.T) {
	voc := vocab.New()
	_, err := ltl2ba.Translate(voc, ltl.MustParse("G(alpha -> F beta)"))
	if err != nil {
		t.Fatal(err)
	}
	if voc.Len() != 2 {
		t.Errorf("vocabulary has %d events, want 2", voc.Len())
	}
}

// TestTicketAutomata translates the paper's running-example contracts
// (Example 5) and sanity checks them: all are satisfiable, and known
// allowed/forbidden runs are classified correctly.
func TestTicketAutomata(t *testing.T) {
	voc := vocab.MustFromNames("purchase", "use", "missedFlight", "refund", "dateChange")
	purchase, _ := voc.SetOf("purchase")
	use, _ := voc.SetOf("use")
	missed, _ := voc.SetOf("missedFlight")
	refund, _ := voc.SetOf("refund")
	change, _ := voc.SetOf("dateChange")
	none := vocab.Set(0)

	ticketC := ltl.ConjoinAll(
		commonClauses(),
		ltl.MustParse("G(!refund)"),
		ltl.MustParse("G(dateChange -> X(!F dateChange))"),
		ltl.MustParse("G(missedFlight -> !F dateChange)"),
	)
	a, err := ltl2ba.Translate(voc, ticketC)
	if err != nil {
		t.Fatal(err)
	}
	if a.IsEmpty() {
		t.Fatal("Ticket C must allow some behavior")
	}
	// purchase; dateChange; use; idle forever — allowed by Ticket C.
	okRun := ltl.Lasso{Prefix: []vocab.Set{purchase, change, use}, Cycle: []vocab.Set{none}}
	if !a.AcceptsLasso(okRun) {
		t.Error("Ticket C should allow purchase; dateChange; use")
	}
	// purchase; refund — forbidden (no refunds).
	badRefund := ltl.Lasso{Prefix: []vocab.Set{purchase, refund}, Cycle: []vocab.Set{none}}
	if a.AcceptsLasso(badRefund) {
		t.Error("Ticket C must not allow a refund")
	}
	// purchase; dateChange; dateChange — forbidden (only one change).
	badTwice := ltl.Lasso{Prefix: []vocab.Set{purchase, change, change, use}, Cycle: []vocab.Set{none}}
	if a.AcceptsLasso(badTwice) {
		t.Error("Ticket C must not allow two date changes")
	}
	// purchase; missedFlight; dateChange — forbidden (no change after miss).
	badMissed := ltl.Lasso{Prefix: []vocab.Set{purchase, missed, change, use}, Cycle: []vocab.Set{none}}
	if a.AcceptsLasso(badMissed) {
		t.Error("Ticket C must not allow a date change after a missed flight")
	}
}

// commonClauses builds C0-C5 of Example 5 for the single-trip flight
// vocabulary.
func commonClauses() *ltl.Expr {
	events := []string{"purchase", "use", "missedFlight", "refund", "dateChange"}
	var clauses []*ltl.Expr
	// C0: one event per snapshot.
	for _, e := range events {
		others := ""
		for _, o := range events {
			if o != e {
				if others != "" {
					others += " && "
				}
				others += "!" + o
			}
		}
		clauses = append(clauses, ltl.MustParse("G("+e+" -> "+others+")"))
	}
	clauses = append(clauses,
		// C1: purchased once.
		ltl.MustParse("G(purchase -> X(!F purchase))"),
		// C2: purchase precedes everything else.
		ltl.MustParse("purchase B (use || missedFlight || refund || dateChange)"),
		// C3: after a miss the ticket is unusable unless rescheduled.
		ltl.MustParse("(missedFlight -> !F use) W dateChange"),
		// C4/C5: refund and use are terminal. The X makes the F strict:
		// with reflexive F the clause would forbid the event itself.
		ltl.MustParse("G(refund -> X !F(use || missedFlight || refund || dateChange))"),
		ltl.MustParse("G(use -> X !F(use || missedFlight || refund || dateChange))"),
	)
	return ltl.ConjoinAll(clauses...)
}

func TestTranslateBounded(t *testing.T) {
	voc := newVoc()
	// A bound of 1 rejects anything beyond the trivial automaton.
	_, err := ltl2ba.TranslateBounded(context.Background(), voc, ltl.MustParse("G(p -> F q) && G(q -> F r) && (p U r)"), 1)
	if !errors.Is(err, ltl2ba.ErrTooLarge) {
		t.Errorf("tight bound should reject, got %v", err)
	}
	// A generous bound changes nothing.
	a, err := ltl2ba.TranslateBounded(context.Background(), voc, ltl.MustParse("G(p -> F q)"), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ltl2ba.Translate(voc, ltl.MustParse("G(p -> F q)"))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStates() != b.NumStates() {
		t.Errorf("bounded and unbounded translation differ: %d vs %d states", a.NumStates(), b.NumStates())
	}
}

// TestDwyerPatternsThroughAutomata drives every behavior/scope pattern
// through the full pipeline and checks automaton acceptance against
// the evaluator on random runs — the translator exercised on exactly
// the formula shapes the evaluation datasets are made of.
func TestDwyerPatternsThroughAutomata(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	params := dwyer.Params{P: "p", S: "s", Q: "q", R: "r"}
	for _, b := range dwyer.Behaviors() {
		for _, sc := range dwyer.Scopes() {
			f, err := dwyer.Instantiate(b, sc, params)
			if err != nil {
				t.Fatal(err)
			}
			voc := vocab.MustFromNames("p", "s", "q", "r")
			a, err := ltl2ba.Translate(voc, f)
			if err != nil {
				t.Fatalf("%s/%s: %v", b, sc, err)
			}
			for j := 0; j < 120; j++ {
				run := ltltest.Lasso(rng, 4, 4, 3)
				if a.AcceptsLasso(run) != run.Eval(voc, f) {
					t.Fatalf("%s/%s: automaton disagrees with evaluator on %v/%v for %s",
						b, sc, run.Prefix, run.Cycle, f)
				}
			}
		}
	}
}

// TestScratchReuseAfterAbort: translations share pooled scratch, and
// one that stops midway — canceled by its deadline or over its state
// bound — leaves it mid-construction. Every later translation must
// still build exactly the automaton a clean run builds.
func TestScratchReuseAfterAbort(t *testing.T) {
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 9)
	rng := rand.New(rand.NewSource(11))
	deep := ltltest.Config{Atoms: voc.Names()[:6], MaxDepth: 8}
	for i := range 600 {
		f := gen.Specification(datagen.QueryClasses()[i%3].Properties)
		want := ltl2ba.MustTranslate(voc, f)
		// Deep random formulas are single conjuncts with many covers;
		// complex contracts fold many conjuncts.
		hard := ltltest.Expr(rng, deep)
		if i%4 < 2 {
			hard = gen.Specification(datagen.ComplexContracts.Properties)
		}
		if i%2 == 0 {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(50))*time.Microsecond)
			ltl2ba.TranslateBounded(ctx, voc, hard, 0)
			cancel()
		} else if _, err := ltl2ba.TranslateBounded(context.Background(), voc, hard, 1+rng.Intn(4)); err == nil {
			continue // small enough to pass; no abort to recover from
		}
		got, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatalf("%s after an aborted translation: %v", f, err)
		}
		if got.Init != want.Init || !slices.Equal(got.Final, want.Final) || !slices.Equal(got.EdgeOff, want.EdgeOff) ||
			!slices.Equal(got.EdgeTo, want.EdgeTo) || !slices.Equal(got.EdgeLabel, want.EdgeLabel) || !slices.Equal(got.Labels, want.Labels) {
			t.Fatalf("%s: %d states after an aborted translation, %d before", f, got.NumStates(), want.NumStates())
		}
	}
}
