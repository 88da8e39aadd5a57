package bisim_test

import (
	"context"
	"slices"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl2ba"
	"contractdb/internal/permission"
	"contractdb/internal/vocab"
)

// datagenProjections translates a small datagen contract corpus and
// precomputes each contract's projections, as registration does.
func datagenProjections(t *testing.T) []*bisim.ProjectionSet {
	t.Helper()
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 23)
	var out []*bisim.ProjectionSet
	for len(out) < 8 {
		a, err := ltl2ba.TranslateBounded(context.Background(), voc, gen.Specification(datagen.SimpleContracts.Properties), 300)
		if err != nil {
			continue // over the state bound; registration would refuse it too
		}
		out = append(out, bisim.Precompute(a, 2))
	}
	return out
}

// eachQuotient calls fn for every quotient For hands out over the
// precomputed subsets, skipping subsets served by the parent itself.
func eachQuotient(ps *bisim.ProjectionSet, fn func(set vocab.Set, q *buchi.BA)) {
	for _, set := range ps.Subsets() {
		if q := ps.For(set); q != ps.Auto {
			fn(set, q)
		}
	}
}

// rawQuotient is the pointer-path reference for a projection quotient:
// every parent edge projected and redirected between classes, with
// the duplicate and subsumed edges that produces left in place.
func rawQuotient(a *buchi.BA, p bisim.Partition, keep vocab.Set) *buchi.BA {
	q := buchi.New(p.Count)
	q.Init = buchi.StateID(p.Class[a.Init])
	for s, out := range a.Out {
		if a.Final[s] {
			q.SetFinal(buchi.StateID(p.Class[s]))
		}
		for _, e := range out {
			q.AddEdge(buchi.StateID(p.Class[s]), e.Label.Project(keep), buchi.StateID(p.Class[e.To]))
		}
	}
	return q
}

// TestQuotientSeedsMatchPointer: the seeds the CSR walk computes on a
// compiled-only quotient equal the pointer walk's on the unnormalized
// quotient, for every quotient of a datagen corpus.
func TestQuotientSeedsMatchPointer(t *testing.T) {
	dropped := 0
	for _, ps := range datagenProjections(t) {
		eachQuotient(ps, func(set vocab.Set, q *buchi.BA) {
			raw := rawQuotient(ps.Auto, bisim.CoarsestProjected(ps.Auto, set), set)
			if raw.NumStates() != q.NumStates() {
				t.Fatalf("subset %v: reference quotient has %d states, For's has %d", set, raw.NumStates(), q.NumStates())
			}
			if raw.NumEdges() > q.Compiled().NumEdges() {
				dropped++
			}
			if got, want := q.OnAcceptingCycle(), raw.OnAcceptingCycle(); !slices.Equal(got, want) {
				t.Fatalf("subset %v: CSR seeds %v, pointer seeds %v", set, got, want)
			}
		})
	}
	if dropped == 0 {
		t.Fatal("no quotient had duplicate or subsumed edges; the corpus no longer covers that case")
	}
}

// TestQuotientsStayCompiledOnly: a quotient For hands out is a shell
// over its compiled form, and building a checker for it — seed
// analysis included — and running a check leave its adjacency
// unmaterialized.
func TestQuotientsStayCompiledOnly(t *testing.T) {
	voc := datagen.NewVocabulary()
	query, err := ltl2ba.Translate(voc, datagen.New(voc, 29).Specification(datagen.SimpleQueries.Properties))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ps := range datagenProjections(t) {
		eachQuotient(ps, func(set vocab.Set, q *buchi.BA) {
			permission.NewChecker(q).Permits(query)
			if q.Out != nil {
				t.Fatalf("subset %v: the quotient's adjacency was materialized", set)
			}
			n++
		})
	}
	if n == 0 {
		t.Fatal("the corpus produced no quotients")
	}
}

// TestDerivedQuotientExactSize: a derived quotient's arrays are
// allocated at their final length, with no append-growth slack.
func TestDerivedQuotientExactSize(t *testing.T) {
	for _, ps := range datagenProjections(t) {
		eachQuotient(ps, func(set vocab.Set, q *buchi.BA) {
			c := q.Compiled()
			for _, arr := range []struct {
				name     string
				len, cap int
			}{
				{"EdgeTo", len(c.EdgeTo), cap(c.EdgeTo)},
				{"EdgeLabel", len(c.EdgeLabel), cap(c.EdgeLabel)},
				{"Labels", len(c.Labels), cap(c.Labels)},
				{"EdgeOff", len(c.EdgeOff), cap(c.EdgeOff)},
				{"Final", len(c.Final), cap(c.Final)},
			} {
				if arr.cap != arr.len {
					t.Fatalf("subset %v: %s has cap %d, len %d", set, arr.name, arr.cap, arr.len)
				}
			}
		})
	}
}
