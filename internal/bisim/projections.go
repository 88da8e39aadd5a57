package bisim

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// ProjectionSet holds the precomputed simplifications of one contract
// automaton (paper §5.2). For every subset S of the contract's events
// up to size MaxSubset, it stores the coarsest bisimulation partition
// of the automaton with labels projected onto S. Partitions — not
// quotient automata — are stored, as the paper suggests ("we can just
// memorize the list of bisimilar states for a particular projection"),
// and the set is nothing but their flat form (FlatProjections): one
// deduplicated partition table cited per subset, by the subset's rank.
// A set loaded from a snapshot adopts that form from the snapshot's
// slabs as it is.
//
// Quotients are derived lazily, one per table, not one per subset:
// only ~5% of subsets have a distinct partition, so the quotients (and
// the checkers callers build over them) are bounded by the tables
// fixed at precomputation. Subsets larger than MaxSubset fall back to
// the full automaton, so correctness never depends on the
// precomputation budget (§5.2: limiting precomputation "would affect
// the evaluation performance of queries with more than k literals",
// not their answers).
//
// TableQuotient and For, which fill the lazy quotient slots, are not
// safe for concurrent use; the engine serializes them. Everything
// else reads only the flat form, fixed at construction, and is safe to
// call from any goroutine, concurrently with a serialized For.
type ProjectionSet struct {
	Auto      *buchi.BA
	MaxSubset int

	// labelEvents is the set of events actually occurring in labels.
	// Projections depend only on S ∩ labelEvents: events a contract
	// cites but whose literals were simplified away cannot affect any
	// label, so the subset lattice is enumerated over labelEvents
	// only. This is §5.3's "generate and consider only those subsets
	// of literals that could result in a split".
	labelEvents vocab.Set

	flat FlatProjections

	// quotients holds each table's quotient, nil until first asked
	// for; the slice itself is allocated by the first TableQuotient.
	quotients []*buchi.BA

	// DistinctPartitions counts unique partitions among the
	// precomputed subsets, reproducing the paper's ~5% observation.
	DistinctPartitions int
	PrecomputedSubsets int
}

// Precompute runs the lattice-ordered refinement of §5.3: subsets are
// processed smallest-first, and each subset's refinement is seeded
// with the partition of one of its immediate sub-subsets, which by
// Theorem 3 is a coarser partition of the same states. Identical
// partitions are shared.
func Precompute(a *buchi.BA, maxSubset int) *ProjectionSet {
	// One refiner serves the whole lattice: the contract is loaded once,
	// and every subset reuses the scratch.
	r := loadRefiner(a)
	defer refinerPool.Put(r)
	var labelEvents vocab.Set
	for _, l := range r.labels {
		labelEvents = labelEvents.Union(l.Vars())
	}
	events := labelEvents.IDs()
	maxSubset = max(0, min(maxSubset, len(events)))

	dedup := make(map[string]*Partition)
	var key []byte
	intern := func(p Partition) *Partition {
		key = p.appendKey(key[:0])
		if shared, ok := dedup[string(key)]; ok {
			return shared
		}
		cp := p
		dedup[string(key)] = &cp
		return &cp
	}

	// The finest partition any subset can reach is the one for the
	// full label set. Once a subset's partition saturates to it, every
	// superset's partition is sandwiched between the two (Theorem 3)
	// and must be equal — no refinement needed.
	full := intern(r.refine(r.seed(a), labelEvents))
	parts := map[vocab.Set]*Partition{0: intern(r.refine(r.seed(a), 0))}

	subsets := []vocab.Set{0}
	for size := 1; size <= maxSubset; size++ {
		var nextSubsets []vocab.Set
		for _, sub := range subsets {
			// Extend sub by one event greater than its maximum, so each
			// subset is generated exactly once.
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
					parts[s] = intern(r.refine(seed.Class, s))
				}
				nextSubsets = append(nextSubsets, s)
			}
		}
		subsets = nextSubsets
	}
	return fromParts(a, maxSubset, labelEvents, parts)
}

// fromParts builds the set's flat form from interned partitions (equal
// partitions share one pointer), one per subset: the references in
// rank order, and the tables numbered by first occurrence in that
// order, so equal precomputations flatten to equal structures however
// they were built — the invariant the byte-deterministic snapshot
// encoding rests on.
func fromParts(a *buchi.BA, maxSubset int, labelEvents vocab.Set, parts map[vocab.Set]*Partition) *ProjectionSet {
	f := FlatProjections{MaxSubset: maxSubset, RefTables: make([]int32, 0, len(parts))}
	table := make(map[*Partition]int32)
	for set := range Subsets(labelEvents, maxSubset) {
		p := parts[set]
		t, ok := table[p]
		if !ok {
			t = int32(len(f.PartTables))
			table[p] = t
			f.PartTables = append(f.PartTables, *p)
		}
		f.RefTables = append(f.RefTables, t)
	}
	return newProjectionSet(a, labelEvents, f)
}

func newProjectionSet(a *buchi.BA, labelEvents vocab.Set, f FlatProjections) *ProjectionSet {
	return &ProjectionSet{
		Auto:               a,
		MaxSubset:          f.MaxSubset,
		labelEvents:        labelEvents,
		flat:               f,
		DistinctPartitions: len(f.PartTables),
		PrecomputedSubsets: len(f.RefTables),
	}
}

// For returns the smallest simplified automaton that is equivalent to
// the contract automaton for any query citing only the given events
// (Theorem 9): the quotient of the partition table that Table picks,
// or, when the subset exceeds the precomputation budget, the original
// automaton — the fallback §5.2 describes: any projection containing
// the required literals is usable, and the full automaton always
// qualifies (such queries "mostly benefit from the complementary
// prefiltering optimization").
func (ps *ProjectionSet) For(queryEvents vocab.Set) *buchi.BA {
	if t := ps.Table(queryEvents); t >= 0 {
		return ps.TableQuotient(t)
	}
	return ps.Auto
}

// Table returns the index of the partition table serving queries that
// cite the given events, or -1 when none does and the full automaton
// serves them. The relevant subset is the intersection of the query's
// events with the contract's label events; projecting onto exactly
// that subset yields the best available simplification. Its table is
// cited at its rank among the precomputed subsets.
func (ps *ProjectionSet) Table(queryEvents vocab.Set) int {
	relevant := queryEvents.Intersect(ps.Auto.Events).Intersect(ps.labelEvents)
	if i := subsetRank(ps.labelEvents, ps.MaxSubset, relevant); i >= 0 {
		return int(ps.flat.RefTables[i])
	}
	return -1
}

// TableQuotient returns the quotient of partition table t, derived on
// first use with its labels projected onto the union U of the subsets
// that cite the table. It serves each of those subsets S as well as
// the quotient projected onto S would: the table is the coarsest
// bisimulation for S, so a class representative's edges are the
// class's edges under S-projection, and a query relevant to S can only
// conflict with a contract label on events of S, where projecting onto
// U and onto S agree. An edge that U-projection leaves subsumed is
// subsumed under S-projection too, so dropping it removes no match. A
// table with one class per state — no reduction — serves the automaton
// itself, whose labels queries read the same way.
func (ps *ProjectionSet) TableQuotient(t int) *buchi.BA {
	if ps.quotients == nil {
		ps.quotients = make([]*buchi.BA, len(ps.flat.PartTables))
	}
	if q := ps.quotients[t]; q != nil {
		return q
	}
	p := ps.flat.PartTables[t]
	q := ps.Auto
	if p.Count < ps.Auto.NumStates() {
		var keep vocab.Set
		i := 0
		for set := range Subsets(ps.labelEvents, ps.MaxSubset) {
			if int(ps.flat.RefTables[i]) == t {
				keep = keep.Union(set)
			}
			i++
		}
		q = deriveQuotient(ps.Auto, p, keep)
	}
	ps.quotients[t] = q
	return q
}

// deriveQuotient materializes the quotient using one member per class.
// This is valid precisely because the partition is the *coarsest
// forward bisimulation* for keep-projected labels: at the fixpoint,
// all members of a class have identical (projected label, target
// class) edge sets, so any member's edges are the class's edges.
//
// The derivation remaps the parent's CSR rows into the quotient's,
// never building it from edge rows: projecting a canonical (minimal)
// edge row and re-canonicalizing yields exactly the row buchi.Flat.BA
// would build from the raw quotient, because projection preserves
// label implication. This runs on the query path, where it matters.
// Each parent label is projected, and its projection identified and
// ranked in a deduplicated table, once; a row then sorts as plain
// integer keys, with no comparator call and no map lookup per edge.
//
// A cached quotient costs its arrays alone, each allocated at its
// final length: 8 bytes per edge (int32 target and label id), 5 per
// state (offset and final flag) and 16 per distinct label.
func deriveQuotient(a *buchi.BA, p Partition, keep vocab.Set) *buchi.BA {
	derivations.Add(1)
	// projected[projID[i]] is parent label i projected onto keep, with
	// equal projections sharing one entry.
	projID := make([]int32, len(a.Labels))
	var projected []buchi.Label
	seen := make(map[buchi.Label]int32, len(a.Labels))
	for i, l := range a.Labels {
		l = l.Project(keep)
		id, ok := seen[l]
		if !ok {
			id = int32(len(projected))
			projected = append(projected, l)
			seen[l] = id
		}
		projID[i] = id
	}
	// byRank lists the projected labels in CanonicalEdges' label order
	// (literal count, then Pos, then Neg) and rank inverts it, so that
	// one integer key per edge, target class over label rank, sorts a
	// row into canonical order.
	byRank := make([]int32, len(projected))
	for i := range byRank {
		byRank[i] = int32(i)
	}
	slices.SortFunc(byRank, func(x, y int32) int {
		a, b := projected[x], projected[y]
		return cmp.Or(cmp.Compare(a.LiteralCount(), b.LiteralCount()), cmp.Compare(a.Pos, b.Pos), cmp.Compare(a.Neg, b.Neg))
	})
	rank := make([]int32, len(projected))
	for r, id := range byRank {
		rank[id] = int32(r)
	}
	rep := make([]int, p.Count)
	for i := range rep {
		rep[i] = -1
	}
	for s := range a.NumStates() {
		if c := p.Class[s]; rep[c] == -1 {
			rep[c] = s
		}
	}
	qc := &buchi.BA{
		Init:    buchi.StateID(p.Class[a.Init]),
		Final:   make([]bool, p.Count),
		Events:  a.Events,
		EdgeOff: make([]int32, p.Count+1),
	}
	// Quotient label ids are assigned in order of first use along the
	// canonical edge order, as Flat.BA assigns them; qID maps a
	// projected entry to its id, -1 until used.
	qID := make([]int32, len(projected))
	for i := range qID {
		qID[i] = -1
	}
	var nLabels int32
	sc := derivePool.Get().(*deriveScratch)
	defer derivePool.Put(sc)
	row, group, to, lab := sc.row[:0], sc.group[:0], sc.to[:0], sc.lab[:0]
	for c, s := range rep {
		qc.EdgeOff[c] = int32(len(to))
		qc.Final[c] = a.Final[s]
		row = row[:0]
		for e := a.EdgeOff[s]; e < a.EdgeOff[s+1]; e++ {
			row = append(row, uint64(p.Class[a.EdgeTo[e]])<<32|uint64(rank[projID[a.EdgeLabel[e]]]))
		}
		slices.Sort(row)
		// As CanonicalEdges does, keep an edge only if no kept edge to
		// the same target has a weaker label (or the same one).
		for i, key := range row {
			if i == 0 || row[i-1]>>32 != key>>32 {
				group = group[:0] // kept labels of this target
			}
			id := byRank[uint32(key)]
			if slices.ContainsFunc(group, func(k int32) bool { return projected[k].ContainedIn(projected[id]) }) {
				continue
			}
			group = append(group, id)
			if qID[id] < 0 {
				qID[id] = nLabels
				nLabels++
			}
			to = append(to, int32(key>>32))
			lab = append(lab, qID[id])
		}
		qc.MaxDeg = max(qc.MaxDeg, len(to)-int(qc.EdgeOff[c]))
	}
	qc.EdgeOff[p.Count] = int32(len(to))
	qc.EdgeTo = append(make([]int32, 0, len(to)), to...)
	qc.EdgeLabel = append(make([]int32, 0, len(lab)), lab...)
	qc.Labels = make([]buchi.Label, nLabels)
	for id, q := range qID {
		if q >= 0 {
			qc.Labels[q] = projected[id]
		}
	}
	sc.row, sc.group, sc.to, sc.lab = row, group, to, lab
	if err := qc.Validate(); err != nil {
		// The arrays were remapped from a valid parent; a rejection is
		// a bug in this function, not bad input.
		panic("bisim: derived quotient failed validation: " + err.Error())
	}
	return qc
}

// derivations counts deriveQuotient calls process-wide. The
// export-once tests assert a zero delta across checkpoints: exports
// carry partitions only, so no quotient is ever derived to persist.
var derivations atomic.Int64

// DerivationCount returns the number of quotient derivations performed
// by this process so far.
// Tests use deltas; the absolute value is meaningless.
func DerivationCount() int64 { return derivations.Load() }

// deriveScratch is deriveQuotient's working memory, pooled so that a
// derivation's only lasting allocations are the quotient's own arrays:
// edges are gathered here and copied out once their count is known.
type deriveScratch struct {
	row     []uint64 // one class representative's edge keys
	group   []int32  // the row's kept labels to one target
	to, lab []int32  // kept edges of all classes so far
}

var derivePool = sync.Pool{New: func() any { return new(deriveScratch) }}
