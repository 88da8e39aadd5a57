package prefilter_test

import (
	"math/rand"
	"testing"

	"contractdb/internal/buchi"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/paperex"
	"contractdb/internal/permission"
	"contractdb/internal/prefilter"
	"contractdb/internal/vocab"
)

// TestCandidatesAreSound is the index's defining property: for any
// database and query, the candidate set contains every contract that
// permits the query — pruned contracts never permit.
func TestCandidatesAreSound(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		rng := rand.New(rand.NewSource(int64(100 + k)))
		voc := vocab.MustFromNames("a", "b", "c", "d")
		cfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 4}
		ix := prefilter.New(k)
		var contracts []*buchi.BA
		for i := 0; i < 60; i++ {
			a, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
			if err != nil {
				t.Fatal(err)
			}
			ix.Insert(i, a)
			contracts = append(contracts, a)
		}
		for j := 0; j < 60; j++ {
			qf := ltltest.Expr(rng, ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 3})
			qa, err := ltl2ba.Translate(voc, qf)
			if err != nil {
				t.Fatal(err)
			}
			cands := ix.Candidates(qa)
			for i, ca := range contracts {
				if permission.Check(ca, qa) && !cands.Has(i) {
					t.Fatalf("k=%d: contract %d permits query %s but was pruned", k, i, qf)
				}
			}
		}
	}
}

// TestExample10 reproduces §4.2's Example 10: for the Figure 1b query
// (refund after a missed flight), the index must keep Ticket A and
// prune Ticket C, which has no refund-labeled transition at all.
func TestExample10(t *testing.T) {
	voc := paperex.NewVocabulary()
	ix := prefilter.New(2)
	ticketA, err := ltl2ba.Translate(voc, paperex.TicketA())
	if err != nil {
		t.Fatal(err)
	}
	ticketC, err := ltl2ba.Translate(voc, paperex.TicketC())
	if err != nil {
		t.Fatal(err)
	}
	ix.Insert(0, ticketA) // A
	ix.Insert(1, ticketC) // C
	qa, err := ltl2ba.Translate(voc, paperex.QueryRefundAfterMiss())
	if err != nil {
		t.Fatal(err)
	}
	cands := ix.Candidates(qa)
	if !cands.Has(0) {
		t.Error("Ticket A must be a candidate (it permits the query)")
	}
	if cands.Has(1) {
		t.Error("Ticket C must be pruned: no transition mentions refund positively")
	}
}

// TestPruningIsEffective: a query citing an event no contract uses
// must produce an empty candidate set.
func TestPruningIsEffective(t *testing.T) {
	voc := vocab.MustFromNames("a", "b", "zz")
	ix := prefilter.New(2)
	for i, src := range []string{"G(a -> F b)", "G !a", "a U b"} {
		a, err := ltl2ba.Translate(voc, ltl.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		ix.Insert(i, a)
	}
	qa, err := ltl2ba.Translate(voc, ltl.MustParse("F zz"))
	if err != nil {
		t.Fatal(err)
	}
	if cands := ix.Candidates(qa); !cands.IsEmpty() {
		t.Errorf("candidates for F zz should be empty, got %v", cands.Members())
	}
}

// TestTrueQueryKeepsEverything: the unconstrained query cannot prune.
func TestTrueQueryKeepsEverything(t *testing.T) {
	voc := vocab.MustFromNames("a", "b")
	ix := prefilter.New(2)
	const n = 5
	for i := 0; i < n; i++ {
		a, err := ltl2ba.Translate(voc, ltl.MustParse("G(a -> F b)"))
		if err != nil {
			t.Fatal(err)
		}
		ix.Insert(i, a)
	}
	qa, err := ltl2ba.Translate(voc, ltl.True())
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Candidates(qa).Count(); got != n {
		t.Errorf("true query candidates = %d, want %d", got, n)
	}
}

// TestOverDepthLookup: a query label with more literals than the index
// depth must still return a sound (super)set via chunked intersection.
func TestOverDepthLookup(t *testing.T) {
	voc := vocab.MustFromNames("a", "b", "c", "d")
	ix := prefilter.New(1) // depth 1 forces chunking for any 2+-literal label
	a1, err := ltl2ba.Translate(voc, ltl.MustParse("G(a && b && !c)"))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := ltl2ba.Translate(voc, ltl.MustParse("G(a && !b && c)"))
	if err != nil {
		t.Fatal(err)
	}
	ix.Insert(0, a1)
	ix.Insert(1, a2)
	l, err := buchi.ParseLabel(voc, "a & b & !c")
	if err != nil {
		t.Fatal(err)
	}
	s := ix.S(l)
	if !s.Has(0) {
		t.Error("contract 0 has a transition compatible with a & b & !c")
	}
	if s.Has(1) {
		t.Error("contract 1 conflicts on b and c; chunked lookup should still prune it")
	}
}

func TestIndexStatsGrow(t *testing.T) {
	voc := vocab.MustFromNames("a", "b")
	ix := prefilter.New(2)
	if ix.Len() != 0 || ix.NodeCount() != 0 {
		t.Fatal("fresh index not empty")
	}
	a, err := ltl2ba.Translate(voc, ltl.MustParse("G(a -> F b)"))
	if err != nil {
		t.Fatal(err)
	}
	ix.Insert(0, a)
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
	if ix.NodeCount() == 0 {
		t.Error("no nodes materialized")
	}
	if ix.ApproxBytes() == 0 {
		t.Error("ApproxBytes = 0")
	}
}

// TestEmptyQueryAutomaton: a query whose BA has an empty language
// (unsatisfiable query) yields no candidates.
func TestEmptyQueryAutomaton(t *testing.T) {
	voc := vocab.MustFromNames("a")
	ix := prefilter.New(2)
	a, err := ltl2ba.Translate(voc, ltl.MustParse("G a"))
	if err != nil {
		t.Fatal(err)
	}
	ix.Insert(0, a)
	qa, err := ltl2ba.Translate(voc, ltl.MustParse("a && !a"))
	if err != nil {
		t.Fatal(err)
	}
	if cands := ix.Candidates(qa); !cands.IsEmpty() {
		t.Errorf("unsatisfiable query produced candidates %v", cands.Members())
	}
}

func mustLTL(t *testing.T, src string) *ltl.Expr {
	t.Helper()
	f, err := ltl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRemoveMatchesRebuild: removing a contract leaves the index a
// dense re-insertion of the survivors builds — same contract count,
// same nodes, same node sets and candidates — across bitset word
// boundaries and for the first and last ids.
func TestRemoveMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	voc := vocab.MustFromNames("a", "b", "c", "d")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 3}
	var contracts []*buchi.BA
	ix := prefilter.New(2)
	for i := 0; i < 150; i++ {
		a, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		ix.Insert(i, a)
		contracts = append(contracts, a)
	}
	var queries []*buchi.BA
	for range 20 {
		q, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	var probes []buchi.Label
	for pos := range vocab.Set(16) {
		for neg := range vocab.Set(16) {
			if l := (buchi.Label{Pos: pos, Neg: neg}); l.LiteralCount() <= 2 {
				probes = append(probes, l)
			}
		}
	}
	for _, id := range []int{0, 63, 64, 140, 70, 0, 120} {
		ix.Remove(id)
		contracts = append(contracts[:id], contracts[id+1:]...)
		want := prefilter.New(2)
		for i, a := range contracts {
			want.Insert(i, a)
		}
		if ix.Len() != want.Len() || ix.NodeCount() != want.NodeCount() {
			t.Fatalf("after removing %d: %d contracts and %d nodes, a rebuild has %d and %d",
				id, ix.Len(), ix.NodeCount(), want.Len(), want.NodeCount())
		}
		for _, l := range probes {
			if !ix.S(l).Equal(want.S(l)) {
				t.Fatalf("after removing %d: S(%v) = %v, a rebuild's is %v", id, l, ix.S(l).Members(), want.S(l).Members())
			}
		}
		for _, q := range queries {
			if !ix.Candidates(q).Equal(want.Candidates(q)) {
				t.Fatalf("after removing %d: candidates differ from a rebuild's", id)
			}
		}
	}
}
