package bisim_test

import (
	"math/rand"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/permission"
	"contractdb/internal/vocab"
)

// randomProjections translates random contracts over a–e until n of
// them label at least two events, and precomputes their projections
// up to three events.
func randomProjections(t *testing.T, seed int64, n int) (*vocab.Vocabulary, []*bisim.ProjectionSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	voc := vocab.MustFromNames("a", "b", "c", "d", "e", "f")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d", "e"}, MaxDepth: 5}
	var out []*bisim.ProjectionSet
	for len(out) < n {
		a, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		if ps := bisim.Precompute(a, 3); len(ps.LabelEvents().IDs()) >= 2 {
			out = append(out, ps)
		}
	}
	return voc, out
}

// TestProjectionQuotientsBounded: asking For for every precomputed
// subset, twice, derives at most one quotient per distinct partition
// table — the bound that keeps the quotient cache sized by the
// contract, not by the queries asked of it.
func TestProjectionQuotientsBounded(t *testing.T) {
	_, sets := randomProjections(t, 73, 40)
	subsets, derived := 0, int64(0)
	for i, ps := range sets {
		before := bisim.DerivationCount()
		for range 2 {
			for _, set := range ps.Subsets() {
				ps.For(set)
			}
		}
		d := bisim.DerivationCount() - before
		if d > int64(ps.DistinctPartitions) {
			t.Fatalf("contract %d: %d subsets derived %d quotients, over its %d distinct partitions",
				i, ps.PrecomputedSubsets, d, ps.DistinctPartitions)
		}
		subsets += ps.PrecomputedSubsets
		derived += d
	}
	t.Logf("%d subsets, %d quotients derived", subsets, derived)
}

// TestProjectionQuotientVerdicts: for random contracts and random
// queries over each precomputed subset S (plus an event no contract
// cites), the quotient For serves — one per partition table, its
// labels projected onto the union of the subsets citing the table —
// gives the verdict of the quotient projected onto S alone and of the
// full automaton, under both kernels.
func TestProjectionQuotientVerdicts(t *testing.T) {
	voc, sets := randomProjections(t, 79, 40)
	rng := rand.New(rand.NewSource(83))
	checks := 0
	for i, ps := range sets {
		a := ps.Auto
		for _, set := range ps.Subsets() {
			atoms := []string{"f"}
			for _, id := range set.IDs() {
				atoms = append(atoms, voc.Name(id))
			}
			contracts := []*buchi.BA{
				a,
				ps.For(set),
				bisim.Quotient(a, bisim.CoarsestProjected(a, set), set),
			}
			for range 3 {
				q, err := ltl2ba.Translate(voc, ltltest.Expr(rng, ltltest.Config{Atoms: atoms, MaxDepth: 3}))
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range []permission.Algorithm{permission.SCC, permission.NestedDFS} {
					want, _ := permission.NewChecker(a).PermitsAlgo(q, algo)
					for k, c := range contracts[1:] {
						if got, _ := permission.NewChecker(c).PermitsAlgo(q, algo); got != want {
							t.Fatalf("contract %d, subset %s, kernel %d: %s verdict %v, full automaton %v",
								i, set, algo, []string{"table quotient", "per-subset quotient"}[k], got, want)
						}
					}
					checks++
				}
			}
		}
	}
	t.Logf("%d verdicts compared", checks)
}
