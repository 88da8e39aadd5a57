package bisim_test

import (
	"math/rand"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/paperex"
	"contractdb/internal/permission"
	"contractdb/internal/vocab"
)

// TestReducePreservesLanguage: the bisimulation quotient with full
// labels accepts exactly the same runs (Theorem 8).
func TestReducePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	voc := vocab.MustFromNames("a", "b", "c")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 4}
	for i := 0; i < 200; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		r := bisim.Reduce(a)
		if r.NumStates() > a.NumStates() {
			t.Fatalf("Reduce grew the automaton: %d -> %d", a.NumStates(), r.NumStates())
		}
		for j := 0; j < 20; j++ {
			run := ltltest.Lasso(rng, 3, 3, 3)
			if a.AcceptsLasso(run) != r.AcceptsLasso(run) {
				t.Fatalf("quotient changed the language of BA(%s)", f)
			}
		}
	}
}

// TestProjectionPreservesPermission is Theorem 9: checking a query
// against the projected-and-quotiented contract gives the same verdict
// as against the original, whenever the projection keeps the query's
// events.
func TestProjectionPreservesPermission(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	voc := vocab.MustFromNames("a", "b", "c", "d")
	contractCfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 4}
	queryCfg := ltltest.Config{Atoms: []string{"a", "b"}, MaxDepth: 3}
	keep, _ := voc.SetOf("a", "b")
	for i := 0; i < 200; i++ {
		ca, err := ltl2ba.Translate(voc, ltltest.Expr(rng, contractCfg))
		if err != nil {
			t.Fatal(err)
		}
		qa, err := ltl2ba.Translate(voc, ltltest.Expr(rng, queryCfg))
		if err != nil {
			t.Fatal(err)
		}
		part := bisim.CoarsestProjected(ca, keep)
		proj := bisim.Quotient(ca, part, keep)
		if proj.Events != ca.Events {
			t.Fatal("projection must preserve the contract vocabulary")
		}
		want := permission.Check(ca, qa)
		got := permission.Check(proj, qa)
		if got != want {
			t.Fatalf("projection changed permission: want %v got %v (contract %d states -> %d)",
				want, got, ca.NumStates(), proj.NumStates())
		}
	}
}

// TestRefinementMonotonicity is Theorem 3: the partition for a
// superset of events refines the partition for a subset.
func TestRefinementMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	voc := vocab.MustFromNames("a", "b", "c")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 4}
	a, _ := voc.SetOf("a")
	ab, _ := voc.SetOf("a", "b")
	abc, _ := voc.SetOf("a", "b", "c")
	for i := 0; i < 100; i++ {
		ba, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		chain := []vocab.Set{0, a, ab, abc}
		var prev bisim.Partition
		for j, keep := range chain {
			cur := bisim.CoarsestProjected(ba, keep)
			if j > 0 && !refines(cur, prev) {
				t.Fatalf("partition for %s does not refine partition for %s", keep, chain[j-1])
			}
			prev = cur
		}
	}
}

// refines reports whether p refines q: states sharing a p-class also
// share their q-class.
func refines(p, q bisim.Partition) bool {
	rep := make(map[int32]int32)
	for s, pc := range p.Class {
		if qc, ok := rep[pc]; ok {
			if qc != q.Class[s] {
				return false
			}
		} else {
			rep[pc] = q.Class[s]
		}
	}
	return true
}

// TestSeededRefinementMatchesDirect: seeding the refinement with a
// coarser partition (the §5.3 lattice strategy) must land on the same
// coarsest partition as refining from scratch.
func TestSeededRefinementMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	voc := vocab.MustFromNames("a", "b", "c")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c"}, MaxDepth: 4}
	ab, _ := voc.SetOf("a", "b")
	a1, _ := voc.SetOf("a")
	for i := 0; i < 100; i++ {
		ba, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		direct := bisim.CoarsestProjected(ba, ab)
		seed := bisim.CoarsestProjected(ba, a1)
		seeded := bisim.RefineProjected(ba, seed, ab)
		if direct.Key() != seeded.Key() {
			t.Fatalf("seeded refinement differs from direct computation")
		}
	}
}

// TestProjectionSet exercises the precomputation end to end on the
// paper's Ticket C and random queries over event subsets.
func TestProjectionSet(t *testing.T) {
	voc := paperex.NewVocabulary()
	ca, err := ltl2ba.Translate(voc, paperex.TicketC())
	if err != nil {
		t.Fatal(err)
	}
	ps := bisim.Precompute(ca, 2)
	if ps.PrecomputedSubsets == 0 || ps.DistinctPartitions == 0 {
		t.Fatal("no precomputation happened")
	}
	if ps.DistinctPartitions > ps.PrecomputedSubsets {
		t.Fatal("distinct partitions cannot exceed subsets")
	}
	queries := []struct {
		name string
		f    string
	}{
		{"small", "F refund"},
		{"two", "F(missedFlight && X F refund)"},
		{"big", "F(purchase && F(dateChange && F(use || refund)))"},
		{"foreign", "F classUpgrade"},
	}
	for _, q := range queries {
		qa, err := ltl2ba.Translate(voc, ltl.MustParse(q.f))
		if err != nil {
			t.Fatal(err)
		}
		simplified := ps.For(qa.Events)
		if simplified.NumStates() > ca.NumStates() {
			t.Errorf("%s: projection grew: %d -> %d", q.name, ca.NumStates(), simplified.NumStates())
		}
		want := permission.Check(ca, qa)
		got := permission.Check(simplified, qa)
		if got != want {
			t.Errorf("%s: projection changed permission verdict: want %v got %v", q.name, want, got)
		}
	}
	// Small projections should genuinely shrink the automaton.
	refundOnly, _ := voc.SetOf("refund")
	if small := ps.For(refundOnly); small.NumStates() >= ca.NumStates() {
		t.Logf("note: refund-only projection did not shrink (%d vs %d states)", small.NumStates(), ca.NumStates())
	}
}

// TestProjectionSetRandom cross-checks For() against full permission
// checks on random data, including over-budget query event sets that
// exercise the on-demand fallback.
func TestProjectionSetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	voc := vocab.MustFromNames("a", "b", "c", "d", "e")
	contractCfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d", "e"}, MaxDepth: 4}
	queryCfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 3}
	for i := 0; i < 60; i++ {
		ca, err := ltl2ba.Translate(voc, ltltest.Expr(rng, contractCfg))
		if err != nil {
			t.Fatal(err)
		}
		ps := bisim.Precompute(ca, 2) // queries may cite up to 4 events
		for j := 0; j < 10; j++ {
			qa, err := ltl2ba.Translate(voc, ltltest.Expr(rng, queryCfg))
			if err != nil {
				t.Fatal(err)
			}
			want := permission.Check(ca, qa)
			got := permission.Check(ps.For(qa.Events), qa)
			if got != want {
				t.Fatalf("ProjectionSet.For changed verdict: want %v got %v", want, got)
			}
		}
	}
}
