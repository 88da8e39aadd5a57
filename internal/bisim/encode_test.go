package bisim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/vocab"
)

// TestQuotientDerivationMatchesCompile: the quotient automata a
// ProjectionSet hands out carry a compiled form derived from the
// parent's CSR rows, not flattened — this pins the derivation to the
// ground truth by re-flattening each quotient from scratch, and by
// flattening the quotient Quotient builds edge by edge from the
// parent's pointer adjacency, requiring bit-identical results. A
// quotient serves every subset citing its partition table, so its
// labels are projected onto the union of those subsets.
func TestQuotientDerivationMatchesCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	voc := vocab.MustFromNames("a", "b", "c", "d")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 4}
	keeps := [][]string{{"a"}, {"b"}, {"a", "b"}, {"a", "c"}, {"c", "d"}}
	for i := 0; i < 60; i++ {
		a, err := ltl2ba.Translate(voc, ltltest.Expr(rng, cfg))
		if err != nil {
			t.Fatal(err)
		}
		ps := bisim.Precompute(a, 2)
		for _, names := range keeps {
			keep, _ := voc.SetOf(names...)
			q := ps.For(keep)
			if q == a {
				continue // no reduction: served by the parent itself
			}
			derived := q.Compiled()
			if fresh := buchi.Compile(q); !reflect.DeepEqual(derived, fresh) {
				t.Fatalf("derived compiled form for %v diverges from Compile:\n got %+v\nwant %+v",
					names, derived, fresh)
			}
			relevant := keep.Intersect(a.Events).Intersect(ps.LabelEvents())
			built := bisim.Quotient(a, bisim.CoarsestProjected(a, relevant), tableUnion(ps, ps.Table(keep)))
			if fresh := buchi.Compile(built); !reflect.DeepEqual(derived, fresh) {
				t.Fatalf("derived compiled form for %v diverges from the edge-by-edge quotient:\n got %+v\nwant %+v",
					names, derived, fresh)
			}
		}
	}
}

// tableUnion returns the union of the precomputed subsets citing
// partition table t.
func tableUnion(ps *bisim.ProjectionSet, t int) vocab.Set {
	f := ps.ExportFlat()
	var u vocab.Set
	for i, set := range ps.Subsets() {
		if int(f.RefTables[i]) == t {
			u = u.Union(set)
		}
	}
	return u
}

// TestFlatProjectionsRoundTrip: ExportFlat → ImportFlat onto a shell
// of the compiled automaton (as the snapshot loader holds it)
// reproduces the projection set — every subset's derived quotient
// accepts the same lassos as the original's — and the imported set
// re-exports the same flat form after queries filled its cache.
func TestFlatProjectionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	voc := vocab.MustFromNames("a", "b", "c", "d")
	cfg := ltltest.Config{Atoms: []string{"a", "b", "c", "d"}, MaxDepth: 4}
	for i := 0; i < 40; i++ {
		f := ltltest.Expr(rng, cfg)
		a, err := ltl2ba.Translate(voc, f)
		if err != nil {
			t.Fatal(err)
		}
		ps := bisim.Precompute(a, 2)
		flat := ps.ExportFlat()

		shell, err := buchi.ShellFromCompiled(a.Compiled())
		if err != nil {
			t.Fatal(err)
		}
		ps2, err := bisim.ImportFlat(shell, ps.LabelEvents(), flat)
		if err != nil {
			t.Fatal(err)
		}

		// Language differential between original and imported quotients.
		for _, set := range ps.Subsets() {
			q1, q2 := ps.For(set), ps2.For(set)
			for j := 0; j < 10; j++ {
				run := ltltest.Lasso(rng, 4, 3, 3)
				if q1.AcceptsLasso(run) != q2.AcceptsLasso(run) {
					t.Fatalf("imported quotient for %s changed the language of BA(%s)", set, f)
				}
			}
		}
		if !reflect.DeepEqual(ps2.ExportFlat(), flat) {
			t.Fatalf("re-export after import changed the flat form of BA(%s)", f)
		}
	}
}
