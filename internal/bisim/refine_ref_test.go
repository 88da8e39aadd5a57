package bisim

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// This file keeps the signature-string refinement the refiner replaced,
// unchanged, as the oracle of the reference-differential tests
// (refine_test.go): a per-round map from binary-encoded signature
// strings to classes, with each state's (projected label, target class)
// triples sorted.

// RefineOneBucket is RefineProjected with every signature hash forced
// equal, so the exact compare alone decides every class.
func RefineOneBucket(a *buchi.BA, start Partition, keep vocab.Set) Partition {
	r := &refiner{ids: make(map[buchi.Label]int32), sigMask: 0}
	r.load(a)
	return r.refine(start.Class, keep)
}

// rowsOf returns a's edges per state, labels by value.
func rowsOf(a *buchi.BA) [][]buchi.Edge {
	rows := make([][]buchi.Edge, a.NumStates())
	for s := range rows {
		rows[s] = slices.Collect(a.Edges(buchi.StateID(s)))
	}
	return rows
}

// ReferenceRefineProjected is the reference RefineProjected.
func ReferenceRefineProjected(a *buchi.BA, start Partition, keep vocab.Set) Partition {
	return referenceRefine(rowsOf(a), start, keep)
}

// referenceRefine is ReferenceRefineProjected over edge rows, in any
// order and with labels compared by value.
func referenceRefine(rows [][]buchi.Edge, start Partition, keep vocab.Set) Partition {
	n := len(rows)
	if n == 0 {
		return Partition{}
	}
	// Normalize so count reflects the classes actually present; the
	// stability test below compares against it.
	norm := referenceNormalize(start.Class)
	class, count := norm.Class, norm.Count
	// Iteratively split classes by transition signature until stable.
	// The signature of a state is its set of (projected label, target
	// class) pairs; bisimilar states must have equal signatures.
	// Signatures are binary-encoded into a reusable buffer to keep the
	// refinement loop allocation-light.
	var pairs tripleSlice
	var buf []byte
	newClass := make([]int32, n)
	for {
		next := make(map[string]int32, count)
		for s := 0; s < n; s++ {
			pairs = pairs[:0]
			for _, e := range rows[s] {
				l := e.Label.Project(keep)
				pairs = append(pairs, [3]uint64{uint64(l.Pos), uint64(l.Neg), uint64(class[e.To])})
			}
			pairs.sort()
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(class[s]))
			last := [3]uint64{^uint64(0), ^uint64(0), ^uint64(0)}
			for _, p := range pairs {
				if p == last {
					continue // signatures are sets: drop duplicates
				}
				last = p
				buf = binary.LittleEndian.AppendUint64(buf, p[0])
				buf = binary.LittleEndian.AppendUint64(buf, p[1])
				buf = binary.LittleEndian.AppendUint64(buf, p[2])
			}
			c, ok := next[string(buf)]
			if !ok {
				c = int32(len(next))
				next[string(buf)] = c
			}
			newClass[s] = c
		}
		if len(next) == count {
			return referenceNormalize(newClass)
		}
		copy(class, newClass)
		count = len(next)
	}
}

// referenceNormalize renumbers classes by first occurrence.
func referenceNormalize(class []int32) Partition {
	remap := make(map[int32]int32)
	out := make([]int32, len(class))
	for i, c := range class {
		nc, ok := remap[c]
		if !ok {
			nc = int32(len(remap))
			remap[c] = nc
		}
		out[i] = nc
	}
	return Partition{Class: out, Count: len(remap)}
}

// tripleSlice sorts (Pos, Neg, class) signature triples without the
// reflection overhead of sort.Slice; out-degrees are small, so an
// insertion sort wins below a threshold.
type tripleSlice [][3]uint64

func (t tripleSlice) Len() int      { return len(t) }
func (t tripleSlice) Swap(i, j int) { t[i], t[j] = t[j], t[i] }
func (t tripleSlice) Less(i, j int) bool {
	if t[i][2] != t[j][2] {
		return t[i][2] < t[j][2]
	}
	if t[i][0] != t[j][0] {
		return t[i][0] < t[j][0]
	}
	return t[i][1] < t[j][1]
}

func (t tripleSlice) sort() {
	if len(t) <= 24 {
		for i := 1; i < len(t); i++ {
			for j := i; j > 0 && t.Less(j, j-1); j-- {
				t[j], t[j-1] = t[j-1], t[j]
			}
		}
		return
	}
	sort.Sort(t)
}

// ReferenceCoarsestProjected is the reference CoarsestProjected.
func ReferenceCoarsestProjected(a *buchi.BA, keep vocab.Set) Partition {
	return referenceCoarsest(rowsOf(a), a.Final, keep)
}

// referenceCoarsest is ReferenceCoarsestProjected over edge rows.
func referenceCoarsest(rows [][]buchi.Edge, final []bool, keep vocab.Set) Partition {
	initial := make([]int32, len(rows))
	for s, f := range final {
		if f {
			initial[s] = 1
		}
	}
	return referenceRefine(rows, Partition{Class: initial, Count: 2}, keep)
}

// ReferenceCoarsestBackward is the reference CoarsestBackward, which
// refines the reversed edge rows.
func ReferenceCoarsestBackward(a *buchi.BA) Partition {
	n := a.NumStates()
	rev := make([][]buchi.Edge, n)
	for s := range n {
		for e := range a.Edges(buchi.StateID(s)) {
			rev[e.To] = append(rev[e.To], buchi.Edge{Label: e.Label, To: buchi.StateID(s)})
		}
	}
	initial := make([]int32, n)
	for s := 0; s < n; s++ {
		c := int32(0)
		if a.Final[s] {
			c |= 1
		}
		if buchi.StateID(s) == a.Init {
			c |= 2
		}
		initial[s] = c
	}
	return referenceRefine(rev, Partition{Class: initial, Count: 4}, ^vocab.Set(0))
}

// ReferenceReduceBidirectional is ReduceBidirectional over the
// reference partitions.
func ReferenceReduceBidirectional(a *buchi.BA) *buchi.BA {
	for {
		before := a.NumStates()
		if p := ReferenceCoarsestProjected(a, ^vocab.Set(0)); p.Count != a.NumStates() {
			a = Quotient(a, p, ^vocab.Set(0))
		}
		if bp := ReferenceCoarsestBackward(a); bp.Count < a.NumStates() {
			a = Quotient(a, bp, ^vocab.Set(0))
		}
		if a.NumStates() == before {
			return a
		}
	}
}

// ReferencePrecompute is Precompute over the reference refinement and
// the fmt-built partition keys.
func ReferencePrecompute(a *buchi.BA, maxSubset int) *ProjectionSet {
	return ReferencePrecomputeRows(a, rowsOf(a), maxSubset)
}

// ReferencePrecomputeRows is ReferencePrecompute refining the given
// edge rows in place of a's.
func ReferencePrecomputeRows(a *buchi.BA, rows [][]buchi.Edge, maxSubset int) *ProjectionSet {
	var labelEvents vocab.Set
	for _, out := range rows {
		for _, e := range out {
			labelEvents = labelEvents.Union(e.Label.Vars())
		}
	}
	events := labelEvents.IDs()
	if maxSubset > len(events) {
		maxSubset = len(events)
	}
	dedup := make(map[string]*Partition)
	intern := func(p Partition) *Partition {
		key := ReferenceKey(p)
		if shared, ok := dedup[key]; ok {
			return shared
		}
		cp := p
		dedup[key] = &cp
		return &cp
	}
	full := intern(referenceCoarsest(rows, a.Final, labelEvents))
	parts := map[vocab.Set]*Partition{0: intern(referenceCoarsest(rows, a.Final, 0))}
	subsets := []vocab.Set{0}
	for size := 1; size <= maxSubset; size++ {
		var nextSubsets []vocab.Set
		for _, sub := range subsets {
			start := 0
			if !sub.IsEmpty() {
				ids := sub.IDs()
				start = int(ids[len(ids)-1]) + 1
			}
			seed := parts[sub]
			for _, e := range events {
				if int(e) < start {
					continue
				}
				s := sub.With(e)
				if seed == full {
					parts[s] = full
				} else {
					parts[s] = intern(referenceRefine(rows, *seed, s))
				}
				nextSubsets = append(nextSubsets, s)
			}
		}
		subsets = nextSubsets
	}
	return fromParts(a, maxSubset, labelEvents, parts)
}

// ReferenceKey is the reference Partition.Key.
func ReferenceKey(p Partition) string {
	var b strings.Builder
	for i, c := range p.Class {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", c)
	}
	return b.String()
}

// Subsets returns the set's precomputed subsets in rank order.
func (ps *ProjectionSet) Subsets() []vocab.Set {
	return slices.Collect(Subsets(ps.labelEvents, ps.MaxSubset))
}

// Parts returns the set's precomputed partition for each subset.
func (ps *ProjectionSet) Parts() map[vocab.Set]*Partition {
	out := make(map[vocab.Set]*Partition, len(ps.flat.RefTables))
	i := 0
	for set := range Subsets(ps.labelEvents, ps.MaxSubset) {
		out[set] = &ps.flat.PartTables[ps.flat.RefTables[i]]
		i++
	}
	return out
}
