package bisim

import (
	"fmt"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// FlatProjections is the formatVersion-4 shape of a contract's
// projection precomputation, and the form a ProjectionSet holds:
// deduplicated, canonically numbered partition class tables, addressed
// by the precomputed event subsets in ascending order (RefSets), each
// citing its table by index (RefTables[i] for RefSets[i]). formatVersion
// 3 stored a full class table per subset even though only ~5% of
// subsets are distinct (§5.2); this form stores each distinct table
// once. Tables are numbered by first occurrence in subset order, so
// equal precomputations produce equal structures regardless of how
// they were built — the invariant the byte-deterministic v4 encoding
// rests on. Quotients are never persisted: the query path derives one
// per table on first use.
//
// Every slice may alias storage owned by a snapshot mapping (the
// part-ref-sets, part-ref-tables and classes slabs); treat them as
// read-only.
type FlatProjections struct {
	MaxSubset  int
	PartTables []Partition
	RefSets    []vocab.Set
	RefTables  []int32
}

// ExportFlat returns the set's flat form, which every export renders —
// the registration record and each checkpoint — with no work and no
// quotient derived: partitions are immutable, so a set's export never
// changes. A set loaded by ImportFlat returns the persisted form it
// adopted. The returned slices alias the set; treat them as read-only.
func (ps *ProjectionSet) ExportFlat() FlatProjections { return ps.flat }

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

// ImportFlat rebuilds a ProjectionSet for auto from its flat form,
// which it adopts as it is: no table, subset or reference is copied,
// and no index is built over them (Table binary-searches the sorted
// subsets). labelEvents is the persisted label-event set (computed at
// export from the automaton's labels), passed in so import never walks
// the automaton's adjacency — auto is typically a shell whose edges
// stay unmaterialized. The form is validated in place.
func ImportFlat(auto *buchi.BA, labelEvents vocab.Set, f FlatProjections) (*ProjectionSet, error) {
	n := auto.NumStates()
	for i, t := range f.PartTables {
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
	}
	if len(f.RefTables) != len(f.RefSets) {
		return nil, fmt.Errorf("bisim: %d partition refs cite %d tables", len(f.RefSets), len(f.RefTables))
	}
	nextTable := int32(0)
	for i, set := range f.RefSets {
		if i > 0 && set <= f.RefSets[i-1] {
			return nil, fmt.Errorf("bisim: partition refs not strictly sorted at %s", set)
		}
		switch t := f.RefTables[i]; {
		case t < 0 || t > nextTable:
			return nil, fmt.Errorf("bisim: partition ref for %s cites table %d before its introduction (next is %d)",
				set, t, nextTable)
		case int(t) >= len(f.PartTables):
			return nil, fmt.Errorf("bisim: partition ref for %s cites table %d of %d", set, t, len(f.PartTables))
		case t == nextTable:
			nextTable++
		}
	}
	if int(nextTable) != len(f.PartTables) {
		return nil, fmt.Errorf("bisim: %d partition tables stored, %d referenced", len(f.PartTables), nextTable)
	}
	return newProjectionSet(auto, labelEvents, f), nil
}

// LabelEvents returns the set of events occurring in the automaton's
// labels, as computed at precomputation time. Persisted alongside the
// flat form so import never recomputes it from the adjacency.
func (ps *ProjectionSet) LabelEvents() vocab.Set { return ps.labelEvents }
