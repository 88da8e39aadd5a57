package bisim_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"contractdb/internal/bisim"
	"contractdb/internal/datagen"
	"contractdb/internal/ltl2ba"
)

// exportCorpus precomputes a datagen Simple-class corpus at the
// engine's default subset budget, as registration does.
func exportCorpus(t *testing.T) []*bisim.ProjectionSet {
	t.Helper()
	voc := datagen.NewVocabulary()
	gen := datagen.New(voc, 29)
	var out []*bisim.ProjectionSet
	for len(out) < 8 {
		a, err := ltl2ba.TranslateBounded(context.Background(), voc, gen.Specification(datagen.SimpleContracts.Properties), 300)
		if err != nil || a.IsEmpty() {
			continue
		}
		out = append(out, bisim.Precompute(a, 8))
	}
	return out
}

// TestExportRendersPartitions: ExportFlat renders the set's
// partitions — one ref per precomputed subset, each citing the
// coarsest bisimulation of its projection, tables numbered by first
// occurrence — and exporting derives no quotient.
func TestExportRendersPartitions(t *testing.T) {
	for i, ps := range exportCorpus(t) {
		before := bisim.DerivationCount()
		f := ps.ExportFlat()
		if d := bisim.DerivationCount() - before; d != 0 {
			t.Fatalf("contract %d: export derived %d quotients, want 0", i, d)
		}
		subsets := ps.Subsets()
		if len(f.RefTables) != len(subsets) {
			t.Fatalf("contract %d: %d subsets, ExportFlat has %d refs", i, len(subsets), len(f.RefTables))
		}
		next := int32(0)
		for j, set := range subsets {
			table := f.RefTables[j]
			if table > next {
				t.Fatalf("contract %d: ExportFlat table %d cited before %d", i, table, next)
			}
			if table == next {
				next++
			}
			want := bisim.CoarsestProjected(ps.Auto, set)
			if got := (bisim.Partition{Class: f.PartTables[table].Class}); got.Key() != want.Key() {
				t.Fatalf("contract %d: exported partition for %s is not its coarsest bisimulation", i, set)
			}
		}
		if int(next) != len(f.PartTables) {
			t.Fatalf("contract %d: %d tables, %d referenced", i, len(f.PartTables), next)
		}
	}
}

// TestExportConcurrent: exports may run from any goroutine while the
// serialized query path fills the quotient slots; every caller sees
// the one flat form. Run under -race.
func TestExportConcurrent(t *testing.T) {
	for i, ps := range exportCorpus(t)[:3] {
		var wg sync.WaitGroup
		flats := make([]bisim.FlatProjections, 4)
		for g := range flats {
			wg.Add(1)
			go func() {
				defer wg.Done()
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
