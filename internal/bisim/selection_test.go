package bisim_test

import (
	"reflect"
	"sync"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/buchi"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl2ba"
)

// selectionCorpus precomputes a datagen Simple-class corpus at the
// engine's default subset budget, as registration does.
func selectionCorpus(t *testing.T) []*bisim.ProjectionSet {
	t.Helper()
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 29)
	var out []*bisim.ProjectionSet
	for len(out) < 8 {
		a, err := ltl2ba.TranslateBounded(voc, gen.Specification(datagen.SimpleContracts.Properties), 300)
		if err != nil || a.IsEmpty() {
			continue
		}
		out = append(out, bisim.Precompute(a, 8))
	}
	return out
}

// checkSelection compares selectQuotients under hash against the
// reference at budgets of 0, 1, 2 and 8 times the parent's edges.
func checkSelection(t *testing.T, hash func(*buchi.Compiled) uint64) {
	for i, ps := range selectionCorpus(t) {
		edges := ps.Auto.Compiled().NumEdges()
		for _, factor := range []int{0, 1, 2, 8} {
			budget := factor * edges
			wantTable, wantRefs := ps.ReferenceSelection(budget)
			before := bisim.DerivationCount()
			gotTable, gotRefs := ps.SelectQuotients(budget, hash)
			derived := bisim.DerivationCount() - before
			if !reflect.DeepEqual(gotRefs, wantRefs) {
				t.Fatalf("contract %d, budget %d×: refs diverge\n got %v\nwant %v", i, factor, gotRefs, wantRefs)
			}
			if !reflect.DeepEqual(gotTable, wantTable) {
				t.Fatalf("contract %d, budget %d×: quotient table diverges", i, factor)
			}
			t.Logf("contract %d (%d subsets), budget %d×: %d table entries, %d refs, %d derivations",
				i, len(ps.Subsets()), factor, len(gotTable), len(gotRefs), derived)
		}
	}
}

// TestSelectionMatchesReference: the lower-bound skip and the hashed
// dedup pick exactly the quotients the derive-everything,
// string-fingerprint selection picks, at every budget.
func TestSelectionMatchesReference(t *testing.T) {
	checkSelection(t, bisim.HashCompiled)
}

// TestSelectionOneBucket: with every quotient hashed into one bucket,
// the exact compare alone decides sharing, and the selection is still
// the reference's.
func TestSelectionOneBucket(t *testing.T) {
	checkSelection(t, func(*buchi.Compiled) uint64 { return 0 })
}

// TestExportRendersSelection: Export and ExportFlat render the memoized
// selection at the production budget, numbered as formatVersion 3
// (visit order) and 4 (subset order) respectively.
func TestExportRendersSelection(t *testing.T) {
	for i, ps := range selectionCorpus(t) {
		table, refs := ps.ReferenceSelection(bisim.QuotientEdgeBudgetFactor * ps.Auto.Compiled().NumEdges())
		snap := ps.Export()
		if !reflect.DeepEqual(snap.QuotientTable, table) || !reflect.DeepEqual(snap.QuotientRefs, refs) {
			t.Fatalf("contract %d: Export's quotients diverge from the reference selection", i)
		}
		f := ps.ExportFlat()
		if len(f.QuotientRefs) != len(refs) {
			t.Fatalf("contract %d: ExportFlat has %d refs, want %d", i, len(f.QuotientRefs), len(refs))
		}
		next := 0
		for j, ref := range f.QuotientRefs {
			if ref.Set != refs[j].Set || !reflect.DeepEqual(f.QuotientTable[ref.Table], table[refs[j].Table]) {
				t.Fatalf("contract %d: ExportFlat ref %d diverges from the reference selection", i, j)
			}
			if ref.Table > next {
				t.Fatalf("contract %d: ExportFlat table %d cited before %d", i, ref.Table, next)
			}
			if ref.Table == next {
				next++
			}
		}
		before := bisim.DerivationCount()
		ps.Export()
		ps.ExportFlat()
		if d := bisim.DerivationCount() - before; d != 0 {
			t.Fatalf("contract %d: re-export derived %d quotients, want 0", i, d)
		}
	}
}

// TestSelectionBudgetSweep: on the corpus's smaller contracts, every
// budget from zero to twice the parent's edges, so the skip is also
// exercised where a quotient fills the budget exactly.
func TestSelectionBudgetSweep(t *testing.T) {
	for i, ps := range selectionCorpus(t) {
		if len(ps.Subsets()) > 16 {
			continue
		}
		for budget := 0; budget <= 2*ps.Auto.Compiled().NumEdges(); budget++ {
			wantTable, wantRefs := ps.ReferenceSelection(budget)
			gotTable, gotRefs := ps.SelectQuotients(budget, bisim.HashCompiled)
			if !reflect.DeepEqual(gotRefs, wantRefs) || !reflect.DeepEqual(gotTable, wantTable) {
				t.Fatalf("contract %d, budget %d: selection diverges from the reference", i, budget)
			}
		}
	}
}

// TestExportConcurrent: exports may run from any goroutine while the
// serialized query path fills the quotient cache; every caller sees
// the one memoized selection. Run under -race.
func TestExportConcurrent(t *testing.T) {
	for i, ps := range selectionCorpus(t)[:3] {
		var wg sync.WaitGroup
		flats := make([]bisim.FlatProjections, 4)
		for g := range flats {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ps.Export()
				flats[g] = ps.ExportFlat()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, set := range ps.Subsets() {
				ps.For(set)
			}
		}()
		wg.Wait()
		for g := range flats[1:] {
			if !reflect.DeepEqual(flats[g+1], flats[0]) {
				t.Fatalf("contract %d: concurrent exports disagree", i)
			}
		}
	}
}
