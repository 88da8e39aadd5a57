package bisim

import (
	"fmt"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// PartRef maps one event subset to an entry of the deduplicated
// partition table. formatVersion 3 stored a full class table per
// subset even though only ~5% of subsets are distinct (§5.2); the
// flat form stores each distinct table once and references it.
type PartRef struct {
	Set   vocab.Set
	Table int
}

// FlatProjections is the formatVersion-4 shape of a contract's
// projection precomputation: deduplicated, canonically numbered
// partition class tables addressed by an (event subset → table index)
// reference list sorted by subset. Tables are numbered by first
// occurrence in reference order, so equal precomputations produce
// equal structures regardless of how they were built — the invariant
// the byte-deterministic v4 encoding rests on. Quotients are never
// persisted: the query path derives each one from its partition on
// first use.
//
// The class tables may alias storage owned by a snapshot mapping;
// treat every slice as read-only.
type FlatProjections struct {
	MaxSubset  int
	PartTables []Partition
	PartRefs   []PartRef
}

// ExportFlat captures the projection set in flat form. It returns the
// set's export memo, built on first use by one pass over the
// precomputed partitions, and never again: partitions are immutable,
// so every export of a set — the registration record, each checkpoint
// — renders the same structure. A set loaded by ImportFlat starts with
// the memo seeded from its persisted tables. The returned tables alias
// the memo; treat them as read-only.
func (ps *ProjectionSet) ExportFlat() FlatProjections { return *ps.exportMemo() }

// PrepareExport builds the export memo now, so the first checkpoint
// covering the set finds it ready. Callers run it off every engine
// lock.
func (ps *ProjectionSet) PrepareExport() { ps.exportMemo() }

func (ps *ProjectionSet) exportMemo() *FlatProjections {
	ps.exportOnce.Do(func() { ps.export = ps.flatten() })
	return &ps.export
}

// flatten builds the flat form of the set's partitions. Tables are
// deduplicated by content, not pointer: partitions imported from an
// old snapshot and partitions freshly precomputed must flatten to the
// same tables for the cross-version byte-equality guarantee. Tables
// are numbered by first occurrence in subset order, so the flat
// numbering is canonical.
func (ps *ProjectionSet) flatten() FlatProjections {
	f := FlatProjections{MaxSubset: ps.MaxSubset}
	dedup := make(map[string]int)
	var key []byte
	for _, set := range ps.Subsets() {
		p := ps.parts[set]
		key = p.appendKey(key[:0])
		idx, ok := dedup[string(key)]
		if !ok {
			idx = len(f.PartTables)
			dedup[string(key)] = idx
			f.PartTables = append(f.PartTables, *p)
		}
		f.PartRefs = append(f.PartRefs, PartRef{Set: set, Table: idx})
	}
	return f
}

// validateCanonicalClasses checks that a class table is canonically
// numbered — classes appear in first-occurrence order 0,1,2,… — and
// returns the class count. The check replaces a normalizing copy:
// the table may live in a read-only mapping, and a canonical table is
// exactly what export writes, so a violation means corruption (or a
// foreign writer), not a formatting variant to repair.
func validateCanonicalClasses(class []int) (int, error) {
	next := 0
	for i, c := range class {
		switch {
		case c < 0 || c > next:
			return 0, fmt.Errorf("bisim: class table not canonically numbered at state %d (class %d, expected ≤ %d)", i, c, next)
		case c == next:
			next++
		}
	}
	return next, nil
}

// ImportFlat rebuilds a ProjectionSet for auto from its flat form.
// labelEvents is the persisted label-event set (computed at export
// from the automaton's labels), passed in so import never walks the
// automaton's adjacency — auto is typically a shell whose edges stay
// unmaterialized. Class tables are validated in place, never copied.
func ImportFlat(auto *buchi.BA, labelEvents vocab.Set, f FlatProjections) (*ProjectionSet, error) {
	n := auto.NumStates()
	ps := &ProjectionSet{
		Auto:        auto,
		MaxSubset:   f.MaxSubset,
		labelEvents: labelEvents,
		parts:       make(map[vocab.Set]*Partition, len(f.PartRefs)),
		quotients:   make(map[vocab.Set]*buchi.BA),
	}
	tables := make([]*Partition, len(f.PartTables))
	for i := range f.PartTables {
		t := &f.PartTables[i]
		if len(t.Class) != n {
			return nil, fmt.Errorf("bisim: partition table %d has %d entries, automaton has %d states", i, len(t.Class), n)
		}
		count, err := validateCanonicalClasses(t.Class)
		if err != nil {
			return nil, fmt.Errorf("bisim: partition table %d: %w", i, err)
		}
		if t.Count != count {
			return nil, fmt.Errorf("bisim: partition table %d claims %d classes, holds %d", i, t.Count, count)
		}
		tables[i] = t
	}
	nextTable := 0
	for i, ref := range f.PartRefs {
		if i > 0 && ref.Set <= f.PartRefs[i-1].Set {
			return nil, fmt.Errorf("bisim: partition refs not strictly sorted at %s", ref.Set)
		}
		switch {
		case ref.Table < 0 || ref.Table > nextTable:
			return nil, fmt.Errorf("bisim: partition ref for %s cites table %d before its introduction (next is %d)",
				ref.Set, ref.Table, nextTable)
		case ref.Table == nextTable:
			nextTable++
		}
		if ref.Table >= len(tables) {
			return nil, fmt.Errorf("bisim: partition ref for %s cites table %d of %d", ref.Set, ref.Table, len(tables))
		}
		ps.parts[ref.Set] = tables[ref.Table]
	}
	if nextTable != len(tables) {
		return nil, fmt.Errorf("bisim: %d partition tables stored, %d referenced", len(tables), nextTable)
	}
	ps.PrecomputedSubsets = len(ps.parts)
	ps.DistinctPartitions = len(tables)

	// The validated form is exactly what ExportFlat would build (the
	// numbering checks above enforce its canonical shape), so it seeds
	// the export memo: a checkpoint re-exports the persisted tables,
	// still aliasing their storage.
	ps.exportOnce.Do(func() { ps.export = f })
	return ps, nil
}

// LabelEvents returns the set of events occurring in the automaton's
// labels, as computed at precomputation time. Persisted alongside the
// flat form so import never recomputes it from the adjacency.
func (ps *ProjectionSet) LabelEvents() vocab.Set { return ps.labelEvents }
