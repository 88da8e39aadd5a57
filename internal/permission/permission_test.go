package permission_test

import (
	"math/rand"
	"testing"

	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/paperex"
	"contractdb/internal/permission"
	"contractdb/internal/vocab"
)

// oracle decides permission independently of the nested-DFS search:
// by Theorem 4, a contract permits a query iff the product of the
// contract BA with the query BA restricted to contract-vocabulary
// edges is non-empty.
func oracle(contract, query *buchi.BA) bool {
	restricted := buchi.NewBuilder(query.NumStates())
	restricted.Init = query.Init
	copy(restricted.Final, query.Final)
	for s := range query.NumStates() {
		for e := range query.Edges(buchi.StateID(s)) {
			if e.Label.Vars().SubsetOf(contract.Events) {
				restricted.AddEdge(buchi.StateID(s), e.Label, e.To)
			}
		}
	}
	return !buchi.Intersect(contract, restricted.BA()).IsEmpty()
}

// TestPaperRunningExample pins down the permission verdicts the paper
// derives for its running example.
func TestPaperRunningExample(t *testing.T) {
	voc := paperex.NewVocabulary()
	tickets := map[string]*ltl.Expr{
		"A": paperex.TicketA(),
		"B": paperex.TicketB(),
		"C": paperex.TicketC(),
	}
	queries := map[string]*ltl.Expr{
		"missedRefundOrChange": paperex.QueryMissedRefundOrChange(),
		"refundAfterMiss":      paperex.QueryRefundAfterMiss(),
		"upgradeAfterChange":   paperex.QueryUpgradeAfterChange(),
		"q3":                   paperex.QueryQ3(),
	}
	// Expected verdicts per the paper's discussion (§1, §2.1, §4.2).
	want := map[string]map[string]bool{
		"missedRefundOrChange": {"A": true, "B": true, "C": false},
		"refundAfterMiss":      {"A": true, "B": true, "C": false},
		"upgradeAfterChange":   {"A": false, "B": false, "C": false},
		"q3":                   {"A": false, "B": true, "C": false},
	}
	checkers := map[string]*permission.Checker{}
	for name, f := range tickets {
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatalf("translate ticket %s: %v", name, err)
		}
		if a.IsEmpty() {
			t.Fatalf("ticket %s allows no behavior at all", name)
		}
		checkers[name] = permission.NewChecker(a)
	}
	for qname, qf := range queries {
		qa, err := ltl2ba.Translate(voc, qf)
		if err != nil {
			t.Fatalf("translate query %s: %v", qname, err)
		}
		for tname, ch := range checkers {
			got := ch.Permits(qa)
			if got != want[qname][tname] {
				t.Errorf("ticket %s, query %s: permits=%v, want %v", tname, qname, got, want[qname][tname])
			}
			if got != oracle(ch.Contract(), qa) {
				t.Errorf("ticket %s, query %s: checker disagrees with product oracle", tname, qname)
			}
		}
	}
}

// TestPermitsMatchesOracle cross-validates the nested-DFS search
// against the product-emptiness oracle on random contract/query pairs.
func TestPermitsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	voc := vocab.MustFromNames("a", "b", "c", "d")
	contractCfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 4}
	queryCfg := ltltest.Config{Atoms: []string{"a", "b", "d"}, MaxDepth: 3}
	permitted, denied := 0, 0
	for i := 0; i < 300; i++ {
		cf := ltltest.Expr(rng, contractCfg)
		qf := ltltest.Expr(rng, queryCfg)
		ca, err := ltl2ba.Translate(voc, cf)
		if err != nil {
			t.Fatal(err)
		}
		qa, err := ltl2ba.Translate(voc, qf)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle(ca, qa)
		for _, opts := range [][]permission.Option{
			nil,
			{permission.WithAlgorithm(permission.NestedDFS)},
			{permission.WithAlgorithm(permission.NestedDFS), permission.WithoutSeeds()},
		} {
			got := permission.NewChecker(ca, opts...).Permits(qa)
			if got != want {
				t.Fatalf("contract %s, query %s (seeds=%v): permits=%v, oracle=%v",
					cf, qf, opts == nil, got, want)
			}
		}
		if want {
			permitted++
		} else {
			denied++
		}
	}
	if permitted == 0 || denied == 0 {
		t.Errorf("poor test coverage: permitted=%d denied=%d", permitted, denied)
	}
}

// TestUnderspecifiedContractNotReturned is Example 4 as a focused
// regression: a contract silent about an event must not permit a query
// that requires that event.
func TestUnderspecifiedContractNotReturned(t *testing.T) {
	voc := vocab.MustFromNames("dateChange", "classUpgrade")
	contract, err := ltl2ba.Translate(voc, ltl.MustParse("G(dateChange -> dateChange)"))
	if err != nil {
		t.Fatal(err)
	}
	// Force the contract to cite only dateChange.
	query, err := ltl2ba.Translate(voc, ltl.MustParse("F classUpgrade"))
	if err != nil {
		t.Fatal(err)
	}
	if permission.Check(contract, query) {
		t.Error("contract that never cites classUpgrade must not permit F classUpgrade")
	}
}

// TestQueryWithinVocabularyIsSatisfiability: for queries over the
// contract's own vocabulary, permission degenerates to satisfiability
// of contract ∧ query (the reduction in Theorem 6's lower bound).
func TestQueryWithinVocabularyIsSatisfiability(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	voc := vocab.MustFromNames("a", "b")
	cfg := ltltest.Config{Atoms: []string{"a", "b"}, MaxDepth: 3}
	for i := 0; i < 200; i++ {
		cf := ltltest.Expr(rng, cfg)
		qf := ltltest.Expr(rng, cfg)
		ca, err := ltl2ba.Translate(voc, cf)
		if err != nil {
			t.Fatal(err)
		}
		// Contracts citing fewer events than the query make the
		// vocabulary restriction kick in; skip those, this test wants
		// the pure-satisfiability regime.
		all, _ := voc.SetOf("a", "b")
		if ca.Events != all {
			continue
		}
		qa, err := ltl2ba.Translate(voc, qf)
		if err != nil {
			t.Fatal(err)
		}
		both, err := ltl2ba.Translate(voc, ltl.And(cf, qf))
		if err != nil {
			t.Fatal(err)
		}
		want := !both.IsEmpty()
		if got := permission.Check(ca, qa); got != want {
			t.Fatalf("contract %s, query %s: permits=%v but conjunction satisfiable=%v", cf, qf, got, want)
		}
	}
}

// TestTrueQueryIsNonEmptiness: permission of the trivial query is
// exactly language non-emptiness of the contract (used in the PSPACE
// lower-bound reduction).
func TestTrueQueryIsNonEmptiness(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	voc := vocab.MustFromNames("a", "b", "c")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 4}
	trueBA, err := ltl2ba.Translate(voc, ltl.True())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		cf := ltltest.Expr(rng, cfg)
		ca, err := ltl2ba.Translate(voc, cf)
		if err != nil {
			t.Fatal(err)
		}
		want := !ca.IsEmpty()
		if got := permission.Check(ca, trueBA); got != want {
			t.Fatalf("contract %s: permits(true)=%v, non-empty=%v", cf, got, want)
		}
	}
}

func TestStatsAreReported(t *testing.T) {
	voc := paperex.NewVocabulary()
	ca, err := ltl2ba.Translate(voc, paperex.TicketA())
	if err != nil {
		t.Fatal(err)
	}
	qa, err := ltl2ba.Translate(voc, paperex.QueryRefundAfterMiss())
	if err != nil {
		t.Fatal(err)
	}
	ok, stats := permission.NewChecker(ca).PermitsStats(qa)
	if !ok {
		t.Fatal("Ticket A must permit the Figure 1b query")
	}
	if stats.PairsVisited == 0 {
		t.Error("PairsVisited not counted (SCC)")
	}
	okDFS, dfsStats := permission.NewChecker(ca, permission.WithAlgorithm(permission.NestedDFS)).PermitsStats(qa)
	if !okDFS {
		t.Fatal("NestedDFS disagrees with SCC on the Figure 1b query")
	}
	if dfsStats.CycleSearches == 0 {
		t.Error("CycleSearches not counted (NestedDFS)")
	}
}

// TestSeedsReduceWork checks the seeds optimization prunes nested
// searches (never increases them) while preserving answers.
func TestSeedsReduceWork(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	voc := vocab.MustFromNames("a", "b", "c")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 4}
	for i := 0; i < 100; i++ {
		ca, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		qa, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		okSeeds, withSeeds := permission.NewChecker(ca, permission.WithAlgorithm(permission.NestedDFS)).PermitsStats(qa)
		okPlain, without := permission.NewChecker(ca, permission.WithAlgorithm(permission.NestedDFS), permission.WithoutSeeds()).PermitsStats(qa)
		if okSeeds != okPlain {
			t.Fatalf("seeds changed the verdict")
		}
		// On negative answers both searches explore everything, so the
		// counts are directly comparable.
		if !okSeeds && withSeeds.CycleSearches > without.CycleSearches {
			t.Fatalf("seeds increased cycle searches: %d > %d", withSeeds.CycleSearches, without.CycleSearches)
		}
	}
}

// TestQueryDisjunctionMonotone is a metamorphic property: the
// automaton for q1 || q2 accepts a superset of q1's runs, so any
// contract permitting q1 must permit q1 || q2.
func TestQueryDisjunctionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	voc := vocab.MustFromNames("a", "b", "c")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 3}
	for i := 0; i < 150; i++ {
		cf := ltltest.Expr(rng, cfg)
		q1 := ltltest.Expr(rng, cfg)
		q2 := ltltest.Expr(rng, cfg)
		ca, err := ltl2ba.Translate(voc, cf)
		if err != nil {
			t.Fatal(err)
		}
		qa1, err := ltl2ba.Translate(voc, q1)
		if err != nil {
			t.Fatal(err)
		}
		qaOr, err := ltl2ba.Translate(voc, ltl.Or(q1, q2))
		if err != nil {
			t.Fatal(err)
		}
		// Only valid when the disjunction does not grow the query's
		// event set beyond... the disjunction may cite more events,
		// which never *reduces* permission (extra events only matter
		// on labels that cite them, and BA(q1||q2)'s q1-side lassos
		// exist unchanged); assert the implication directly.
		if permission.Check(ca, qa1) && !permission.Check(ca, qaOr) {
			t.Fatalf("contract %s permits %s but not its weakening with || %s", cf, q1, q2)
		}
	}
}

// TestContractConjunctionMonotone: strengthening a contract with an
// extra clause over its own events can only remove permissions.
func TestContractConjunctionMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	voc := vocab.MustFromNames("a", "b", "c")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 3}
	for i := 0; i < 150; i++ {
		c1 := ltltest.Expr(rng, cfg)
		extra := ltltest.Expr(rng, cfg)
		q := ltltest.Expr(rng, cfg)
		ca1, err := ltl2ba.Translate(voc, c1)
		if err != nil {
			t.Fatal(err)
		}
		caBoth, err := ltl2ba.Translate(voc, ltl.And(c1, extra))
		if err != nil {
			t.Fatal(err)
		}
		// Strengthening may also *add* cited events, which can enable
		// queries that were blocked by the vocabulary restriction —
		// restrict the check to cases where the event set is stable.
		if ca1.Events != caBoth.Events {
			continue
		}
		qa, err := ltl2ba.Translate(voc, q)
		if err != nil {
			t.Fatal(err)
		}
		if permission.Check(caBoth, qa) && !permission.Check(ca1, qa) {
			t.Fatalf("strengthened contract %s && %s permits %s but the original does not", c1, extra, q)
		}
	}
}
