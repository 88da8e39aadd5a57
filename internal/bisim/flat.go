package bisim

import (
	"fmt"
	"iter"
	"math"
	"math/bits"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// FlatProjections is the snapshot shape of a contract's projection
// precomputation, and the form a ProjectionSet holds: deduplicated,
// canonically numbered partition class tables, and RefTables[i]
// citing the table of the subset of rank i among Subsets(label
// events, MaxSubset), which are therefore not stored. formatVersion 3
// stored a full class table per subset even though only ~5% of
// subsets are distinct (§5.2); this form stores each distinct table
// once. Tables are numbered by first occurrence in rank order, so
// equal precomputations produce equal structures however they were
// built — the invariant the byte-deterministic snapshot encoding rests
// on. Quotients are never persisted: the query path derives one per
// table on first use.
//
// Every slice may alias storage owned by a snapshot mapping (the
// part-ref-tables and classes slabs); treat them as read-only.
type FlatProjections struct {
	MaxSubset  int
	PartTables []Partition
	RefTables  []int32
}

// ExportFlat returns the set's flat form, which every export renders —
// the registration record and each checkpoint — with no work and no
// quotient derived: partitions are immutable, so a set's export never
// changes. A set loaded by ImportFlat returns the persisted form it
// adopted. The returned slices alias the set; treat them as read-only.
func (ps *ProjectionSet) ExportFlat() FlatProjections { return ps.flat }

// cumBinom[n][k] is Σ_{i≤k} C(n, i), the number of subsets of at most
// k elements of an n-element set, saturating at math.MaxInt.
var cumBinom = func() (t [65][65]int) {
	for n := range t {
		for k := range t[n] {
			if t[n][k] = 1; n > 0 && k > 0 {
				t[n][k] = min(t[n-1][k], math.MaxInt-t[n-1][k-1]) + t[n-1][k-1]
			}
		}
	}
	return t
}()

// SubsetCount returns the number of subsets of events of size at most
// k: the length of a flat form's RefTables.
func SubsetCount(events vocab.Set, k int) int {
	if k < 0 {
		return 0
	}
	return cumBinom[events.Len()][min(k, 64)]
}

// Subsets yields the subsets of events of size at most k in ascending
// order as vocab.Set values: rank order. It walks m-bit masks over the
// m events in id order, which keeps that order, and skips a mask of
// more than k bits past its lowest run of ones: every mask in between
// has its higher bits.
func Subsets(events vocab.Set, k int) iter.Seq[vocab.Set] {
	return func(yield func(vocab.Set) bool) {
		ids := events.IDs()
		x := uint64(0)
		for range SubsetCount(events, k) {
			var s vocab.Set
			for r := x; r != 0; r &= r - 1 {
				s = s.With(ids[bits.TrailingZeros64(r)])
			}
			if !yield(s) {
				return
			}
			for x++; bits.OnesCount64(x) > k; x += x & -x {
			}
		}
	}
}

// subsetRank returns the rank of s, a subset of events, among Subsets
// (events, k), or -1 when s has more than k events. Walking events from
// the highest, each member e of s counts the subsets that agree with s
// above e, lack e and hold at most k−j of the p events below e, j being
// the members of s above e: cumBinom[p][k−j]. That is O(|events|).
func subsetRank(events vocab.Set, k int, s vocab.Set) int {
	if s.Len() > k {
		return -1
	}
	rank, j := 0, 0
	for p := events.Len() - 1; events != 0; p-- {
		e := vocab.Set(1) << (bits.Len64(uint64(events)) - 1)
		events &^= e
		if s&e != 0 {
			rank += cumBinom[p][k-j]
			j++
		}
	}
	return rank
}

// validateCanonicalClasses checks that a class table is canonically
// numbered — classes appear in first-occurrence order 0,1,2,… — and
// returns the class count. The check replaces a normalizing copy:
// the table may live in a read-only mapping, and a canonical table is
// exactly what export writes, so a violation means corruption (or a
// foreign writer), not a formatting variant to repair.
func validateCanonicalClasses(class []int32) (int, error) {
	next := int32(0)
	for i, c := range class {
		switch {
		case c < 0 || c > next:
			return 0, fmt.Errorf("bisim: class table not canonically numbered at state %d (class %d, expected ≤ %d)", i, c, next)
		case c == next:
			next++
		}
	}
	return int(next), nil
}

// ImportFlat rebuilds a ProjectionSet for auto from its flat form,
// which it adopts as it is: no table or reference is copied, and no
// index is built over them (Table ranks the subset). labelEvents is
// the persisted label-event set (computed at export from the
// automaton's labels), passed in so import never walks the automaton's
// label table. The form is validated in place.
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
	if want := SubsetCount(labelEvents, f.MaxSubset); f.MaxSubset < 0 || f.MaxSubset > labelEvents.Len() || len(f.RefTables) != want {
		return nil, fmt.Errorf("bisim: %d partition refs for the %d subsets of %s up to size %d",
			len(f.RefTables), want, labelEvents, f.MaxSubset)
	}
	nextTable := int32(0)
	for i, t := range f.RefTables {
		switch {
		case t < 0 || t > nextTable:
			return nil, fmt.Errorf("bisim: partition ref %d cites table %d before its introduction (next is %d)",
				i, t, nextTable)
		case int(t) >= len(f.PartTables):
			return nil, fmt.Errorf("bisim: partition ref %d cites table %d of %d", i, t, len(f.PartTables))
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
