package bisim_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/ltltest"
	"contractdb/internal/vocab"
)

// TestQuotientDerivationMatchesCompile: the quotient automata a
// ProjectionSet hands out are derived from the parent's CSR rows, not
// built from edge rows — this pins the derivation to the builder by
// rebuilding each quotient's rows from scratch, and by building the
// quotient Quotient collects edge by edge from the parent's rows,
// requiring identical arrays. A quotient serves every subset citing
// its partition table, so its labels are projected onto the union of
// those subsets.
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
			rows := buchi.Flat{Init: q.Init, Off: []int32{0}, Final: q.Final}
			for s := range q.NumStates() {
				rows.Edges = slices.AppendSeq(rows.Edges, q.Edges(buchi.StateID(s)))
				rows.Next()
			}
			if fresh := rows.BA(q.Events); !sameAutomaton(q, fresh) {
				t.Fatalf("derived quotient for %v diverges from its rows rebuilt:\n got %+v\nwant %+v", names, q, fresh)
			}
			relevant := keep.Intersect(a.Events).Intersect(ps.LabelEvents())
			built := bisim.Quotient(a, bisim.CoarsestProjected(a, relevant), tableUnion(ps, ps.Table(keep)))
			if !sameAutomaton(q, built) {
				t.Fatalf("derived quotient for %v diverges from the edge-by-edge quotient:\n got %+v\nwant %+v", names, q, built)
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

// TestFlatProjectionsRoundTrip: ExportFlat → ImportFlat onto a copy
// of the automaton's arrays (as the snapshot loader adopts them)
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

		adopted := &buchi.BA{
			Init: a.Init, Final: slices.Clone(a.Final), Events: a.Events, MaxDeg: a.MaxDeg,
			EdgeOff: slices.Clone(a.EdgeOff), EdgeTo: slices.Clone(a.EdgeTo), EdgeLabel: slices.Clone(a.EdgeLabel), Labels: slices.Clone(a.Labels),
		}
		if err := adopted.Validate(); err != nil {
			t.Fatal(err)
		}
		ps2, err := bisim.ImportFlat(adopted, ps.LabelEvents(), flat)
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
