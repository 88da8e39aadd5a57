package bisim

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// TestTableRankMatchesSearch: Table, which ranks the relevant subset
// among the subsets of the label events of size at most MaxSubset,
// finds the table a binary search over the explicitly enumerated,
// sorted subsets finds — for label-event sets of 0 to 14 events at
// scattered ids, every bound from 0 to one past the set's size, every
// subset, and query sets that also cite events outside the label
// events. Subsets and SubsetCount must produce that enumeration.
func TestTableRankMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for m := 0; m <= 14; m++ {
		ids := rng.Perm(64)[:m]
		var labels vocab.Set
		for _, id := range ids {
			labels = labels.With(vocab.EventID(id))
		}
		outside := ^labels &^ (vocab.Set(1) << rng.Intn(64))
		order := labels.IDs()
		all := make([]vocab.Set, 0, 1<<m)
		for mask := 0; mask < 1<<m; mask++ {
			var s vocab.Set
			for r := uint(mask); r != 0; r &= r - 1 {
				s = s.With(order[bits.TrailingZeros(r)])
			}
			all = append(all, s)
		}
		slices.Sort(all)
		b := buchi.NewBuilder(1)
		b.Events = labels | outside
		auto := b.BA()
		for k := 0; k <= m+1; k++ {
			var want []vocab.Set
			for _, s := range all {
				if s.Len() <= k {
					want = append(want, s)
				}
			}
			if got := slices.Collect(Subsets(labels, k)); !slices.Equal(got, want) {
				t.Fatalf("|L|=%d k=%d: Subsets yields %d subsets, want the %d sorted ones", m, k, len(got), len(want))
			}
			if n := SubsetCount(labels, k); n != len(want) {
				t.Fatalf("|L|=%d k=%d: SubsetCount %d, want %d", m, k, n, len(want))
			}
			// Table i serves the subset of rank i, so Table returns the
			// rank itself.
			refs := make([]int32, len(want))
			for i := range refs {
				refs[i] = int32(i)
			}
			ps := newProjectionSet(auto, labels, FlatProjections{MaxSubset: k, RefTables: refs})
			for _, s := range all {
				wantTable := -1
				if i, ok := slices.BinarySearch(want, s); ok {
					wantTable = i
				}
				query := s | outside&vocab.Set(rng.Uint64())
				if got := ps.Table(query); got != wantTable {
					t.Fatalf("|L|=%d k=%d: Table(%s) = %d, want %d", m, k, query, got, wantTable)
				}
			}
		}
	}
}
