package bisim_test

import (
	"context"
	"slices"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl2ba"
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

// rawQuotient returns a projection quotient as raw rows: every parent
// edge projected and redirected between classes, with the duplicate
// and subsumed edges that produces left in place.
func rawQuotient(a *buchi.BA, p bisim.Partition, keep vocab.Set) (rows [][]buchi.Edge, final []bool) {
	rows, final = make([][]buchi.Edge, p.Count), make([]bool, p.Count)
	for s := range a.NumStates() {
		c := p.Class[s]
		final[c] = final[c] || a.Final[s]
		for e := range a.Edges(buchi.StateID(s)) {
			rows[c] = append(rows[c], buchi.Edge{Label: e.Label.Project(keep), To: buchi.StateID(p.Class[e.To])})
		}
	}
	return rows, final
}

// naiveSeeds marks the states of rows that lie on a cycle through a
// final state, by brute force: s and a final f reach each other.
func naiveSeeds(rows [][]buchi.Edge, final []bool) []bool {
	reach := make([][]bool, len(rows)) // reach[s][t]: a nonempty path s → t
	for s := range rows {
		reach[s] = make([]bool, len(rows))
		stack := []buchi.StateID{buchi.StateID(s)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range rows[u] {
				if !reach[s][e.To] {
					reach[s][e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
	}
	seeds := make([]bool, len(rows))
	for s := range seeds {
		for f, fin := range final {
			seeds[s] = seeds[s] || fin && reach[s][f] && reach[f][s]
		}
	}
	return seeds
}

// TestQuotientSeedsMatchPointer: the seeds the CSR walk computes on a
// derived quotient equal a brute-force cycle search's on the raw
// quotient's pointer rows ([][]Edge), for every quotient of a datagen
// corpus.
func TestQuotientSeedsMatchPointer(t *testing.T) {
	dropped := 0
	for _, ps := range datagenProjections(t) {
		eachQuotient(ps, func(set vocab.Set, q *buchi.BA) {
			rows, final := rawQuotient(ps.Auto, bisim.CoarsestProjected(ps.Auto, set), set)
			if len(rows) != q.NumStates() {
				t.Fatalf("subset %v: reference quotient has %d states, For's has %d", set, len(rows), q.NumStates())
			}
			raw := 0
			for _, row := range rows {
				raw += len(row)
			}
			if raw > q.NumEdges() {
				dropped++
			}
			if got, want := q.OnAcceptingCycle(), naiveSeeds(rows, final); !slices.Equal(got, want) {
				t.Fatalf("subset %v: CSR seeds %v, naive seeds %v", set, got, want)
			}
		})
	}
	if dropped == 0 {
		t.Fatal("no quotient had duplicate or subsumed edges; the corpus no longer covers that case")
	}
}

// TestDerivedQuotientExactSize: a derived quotient's arrays are
// allocated at their final length, with no append-growth slack.
func TestDerivedQuotientExactSize(t *testing.T) {
	for _, ps := range datagenProjections(t) {
		eachQuotient(ps, func(set vocab.Set, q *buchi.BA) {
			c := q
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
