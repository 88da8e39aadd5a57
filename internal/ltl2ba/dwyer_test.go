package ltl2ba_test

import (
	"context"
	"math/rand"
	"testing"

	"contractdb/internal/buchi"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/vocab"
)

// walkLasso draws an ultimately periodic run guided by automaton a: a
// random walk of up to 16 transitions, each snapshot satisfying its
// edge's label (every other event a cites true with probability 1/8),
// closed into a cycle at an earlier visit of the walk's last state
// when there is one. Runs drawn from an automaton mostly satisfy its
// formula, so they reach behaviour that uniform lassos over twenty
// events almost never do.
func walkLasso(rng *rand.Rand, a *buchi.BA) ltl.Lasso {
	s := a.Init
	states := []buchi.StateID{s}
	var snaps []vocab.Set
	for n := 1 + rng.Intn(16); len(snaps) < n && a.EdgeOff[s] < a.EdgeOff[s+1]; {
		i := a.EdgeOff[s] + int32(rng.Intn(int(a.EdgeOff[s+1]-a.EdgeOff[s])))
		e := buchi.Edge{Label: a.Labels[a.EdgeLabel[i]], To: buchi.StateID(a.EdgeTo[i])}
		snap := e.Label.Pos
		a.Events.Minus(e.Label.Vars()).ForEach(func(ev vocab.EventID) bool {
			if rng.Intn(8) == 0 {
				snap = snap.With(ev)
			}
			return true
		})
		snaps = append(snaps, snap)
		s = e.To
		states = append(states, s)
	}
	if len(snaps) == 0 {
		return ltl.Lasso{Cycle: []vocab.Set{0}}
	}
	var knots []int
	for j, q := range states[:len(snaps)] {
		if q == s {
			knots = append(knots, j)
		}
	}
	j := rng.Intn(len(snaps))
	if len(knots) > 0 {
		j = knots[rng.Intn(len(knots))]
	}
	return ltl.Lasso{Prefix: snaps[:j], Cycle: snaps[j:]}
}

// conjuncts returns the top-level conjuncts of f.
func conjuncts(f *ltl.Expr) []*ltl.Expr {
	if f.Op == ltl.OpAnd {
		return append(conjuncts(f.Left), conjuncts(f.Right)...)
	}
	return []*ltl.Expr{f}
}

// TestTranslateDwyerSpecifications checks Translate against the lasso
// evaluator on the multi-conjunct specifications the database serves:
// datagen's Simple, Medium and Complex contracts (5-7 Dwyer patterns)
// and its three query classes (1-3), at fixed seeds. Runs guided by
// the automaton itself probe what it accepts; runs guided by each
// conjunct's own automaton probe the runs the conjunct fold must keep.
func TestTranslateDwyerSpecifications(t *testing.T) {
	classes := append(datagen.ContractClasses(), datagen.QueryClasses()...)
	for ci, class := range classes {
		voc := datagen.NewVocabulary()
		gen := datagen.New(voc, int64(500+ci))
		rng := rand.New(rand.NewSource(int64(ci)))
		runs, satisfying := 0, 0
		for i := 0; i < 12; i++ {
			f := gen.Specification(class.Properties)
			a, err := ltl2ba.Translate(voc, f)
			if err != nil {
				t.Fatalf("%s: Translate(%s): %v", class.Name, f, err)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("%s: Translate(%s) produced an invalid automaton: %v", class.Name, f, err)
			}
			guides := []*buchi.BA{a}
			for _, g := range conjuncts(f) {
				guides = append(guides, ltl2ba.MustTranslate(voc, g))
			}
			for _, guide := range guides {
				for j := 0; j < 20; j++ {
					run := walkLasso(rng, guide)
					want := run.Eval(voc, f)
					if got := a.AcceptsLasso(run); got != want {
						t.Fatalf("%s: BA(%s) on run prefix=%v cycle=%v: accepts=%v, evaluator says %v",
							class.Name, f, run.Prefix, run.Cycle, got, want)
					}
					runs++
					if want {
						satisfying++
					}
				}
			}
		}
		t.Logf("%s: %d runs, %d satisfying", class.Name, runs, satisfying)
		if satisfying == 0 || satisfying == runs {
			t.Errorf("%s: %d of %d runs satisfy; the sample probes only one side", class.Name, satisfying, runs)
		}
	}
}

// TestTranslateSizeCeiling pins the translator's output size on a
// fixed datagen sample: the mean states and compiled edges of 40
// Simple contracts, and of 60 queries, 20 per class. Every permission
// check walks the contract × query product, and projections, the
// prefilter and snapshots all scale with the contract automaton, so a
// change that lets the automata grow must show up here. Each ceiling
// is the mean measured when the test was written plus 15%; a change
// that shrinks the automata should lower it.
//
// The fold's intermediate products are pinned too: every sample
// specification translates under TranslateBounded with its own final
// size as the bound, so no reduced product outgrows the final
// automaton eightfold and no trimmed one fortyfold. Without the
// reduction of each product, the final shrink still recovers most of
// the final size, but the products balloon.
func TestTranslateSizeCeiling(t *testing.T) {
	const tolerance = 1.15
	queryClasses := datagen.QueryClasses()
	for _, c := range []struct {
		name          string
		seed          int64
		n             int
		patterns      func(i int) int
		states, edges float64 // measured means
	}{
		{"contracts", 1, 40, func(int) int { return datagen.SimpleContracts.Properties }, 31.98, 1004.52},
		{"queries", 2, 60, func(i int) int { return queryClasses[i%len(queryClasses)].Properties }, 4.73, 31.55},
	} {
		voc := datagen.NewVocabulary()
		gen := datagen.New(voc, c.seed)
		var states, edges float64
		for i := 0; i < c.n; i++ {
			f := gen.Specification(c.patterns(i))
			a := ltl2ba.MustTranslate(voc, f)
			states += float64(a.NumStates())
			edges += float64(a.NumEdges())
			if _, err := ltl2ba.TranslateBounded(context.Background(), voc, f, a.NumStates()); err != nil {
				t.Errorf("%s: %s translates to %d states, but not within that bound: %v", c.name, f, a.NumStates(), err)
			}
		}
		states, edges = states/float64(c.n), edges/float64(c.n)
		t.Logf("%s: %.2f states, %.2f compiled edges on average", c.name, states, edges)
		if limit := c.states * tolerance; states > limit {
			t.Errorf("%s: %.2f states on average, ceiling %.2f", c.name, states, limit)
		}
		if limit := c.edges * tolerance; edges > limit {
			t.Errorf("%s: %.2f compiled edges on average, ceiling %.2f", c.name, edges, limit)
		}
	}
}
