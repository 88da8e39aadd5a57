package bisim

import (
	"sort"
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
// memorize the list of bisimilar states for a particular projection");
// quotients are materialized lazily and cached.
//
// Subsets larger than MaxSubset fall back to an on-demand computation,
// also cached, so correctness never depends on the precomputation
// budget (§5.2: limiting precomputation "would affect the evaluation
// performance of queries with more than k literals", not their
// answers).
//
// For, which fills the lazy quotient cache, is not safe for
// concurrent use; the broker engine serializes it. Everything else
// reads only state fixed at construction or the export memo, which a
// sync.Once guards: ExportFlat and PrepareExport (and
// Subsets, LabelEvents and StorageStates) are safe to call from any
// goroutine, concurrently with each other and with a serialized For.
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

	parts     map[vocab.Set]*Partition
	quotients map[vocab.Set]*buchi.BA

	// export is the flat form every export renders, built once (see
	// ExportFlat).
	exportOnce sync.Once
	export     FlatProjections

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
	ps := &ProjectionSet{
		Auto:      a,
		MaxSubset: maxSubset,
		parts:     make(map[vocab.Set]*Partition),
		quotients: make(map[vocab.Set]*buchi.BA),
	}
	// One refiner serves the whole lattice: the contract is flattened
	// and its labels interned once, and every subset reuses the scratch.
	r := loadRefiner(a, false)
	defer refinerPool.Put(r)
	for _, l := range r.labels {
		ps.labelEvents = ps.labelEvents.Union(l.Vars())
	}
	events := ps.labelEvents.IDs()
	if maxSubset > len(events) {
		maxSubset = len(events)
		ps.MaxSubset = maxSubset
	}

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
	full := intern(r.refine(r.seed(a, false), ps.labelEvents))
	ps.parts[0] = intern(r.refine(r.seed(a, false), 0))

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
			seed := ps.parts[sub]
			for _, e := range events {
				if int(e) < start {
					continue
				}
				s := sub.With(e)
				if seed == full {
					ps.parts[s] = full
				} else {
					ps.parts[s] = intern(r.refine(seed.Class, s))
				}
				nextSubsets = append(nextSubsets, s)
			}
		}
		subsets = nextSubsets
	}
	ps.PrecomputedSubsets = len(ps.parts)
	ps.DistinctPartitions = len(dedup)
	return ps
}

// For returns the smallest simplified automaton that is equivalent to
// the contract automaton for any query citing only the given events
// (Theorem 9). The relevant subset is the intersection of the query's
// events with the contract's; projecting onto exactly that subset
// yields the best available simplification. When the subset exceeds
// the precomputation budget, the original automaton is returned — the
// fallback §5.2 describes: any projection containing the required
// literals is usable, and the full automaton always qualifies (such
// queries "mostly benefit from the complementary prefiltering
// optimization").
func (ps *ProjectionSet) For(queryEvents vocab.Set) *buchi.BA {
	relevant := queryEvents.Intersect(ps.Auto.Events).Intersect(ps.labelEvents)
	part, ok := ps.parts[relevant]
	if !ok {
		return ps.Auto
	}
	if q, ok := ps.quotients[relevant]; ok {
		return q
	}
	var q *buchi.BA
	if part.Count == ps.Auto.NumStates() && relevant == ps.Auto.Events {
		q = ps.Auto // no reduction and no label change: reuse as-is
	} else {
		q = deriveQuotient(ps.Auto, *part, relevant)
	}
	ps.quotients[relevant] = q
	return q
}

// deriveQuotient materializes the quotient using one member per class.
// This is valid precisely because the partition is the *coarsest
// forward bisimulation* for keep-projected labels: at the fixpoint,
// all members of a class have identical (projected label, target
// class) edge sets, so any member's edges are the class's edges.
//
// The derivation reads the parent's *compiled* CSR rows rather than
// its pointer-rich edge lists and builds the quotient's compiled form
// by remapping arrays, never by flattening. Together with snapshots
// adopting the parent's compiled form, this keeps the entire query
// path free of Compile calls: projecting a canonical (minimal) edge
// row and re-canonicalizing yields exactly the row Compile would
// produce from the raw quotient, because projection preserves label
// implication. Cost is O(classes · out-degree) — this runs on the
// query path, where it matters. Each parent label is projected, and
// its projection identified in a deduplicated table, once; per edge
// no map is consulted.
//
// The quotient is compiled-only: a buchi.ShellFromCompiled shell with
// Out == nil, which nothing on the query path materializes (the
// kernels and the seed analysis read the CSR arrays). A cached
// quotient therefore costs its arrays alone, each allocated at its
// final length: 8 bytes per edge (int32 target and label id), 5 per
// state (offset and final flag) and 16 per distinct label. A pointer
// adjacency alongside would add 24 bytes per edge and a 24-byte slice
// header per state, before append slack.
func deriveQuotient(a *buchi.BA, p Partition, keep vocab.Set) *buchi.BA {
	derivations.Add(1)
	pc := a.Compiled()
	// projected[projID[i]] is parent label i projected onto keep, with
	// equal projections sharing one entry.
	projID := make([]int32, len(pc.Labels))
	var projected []buchi.Label
	seen := make(map[buchi.Label]int32, len(pc.Labels))
	for i, l := range pc.Labels {
		l = l.Project(keep)
		id, ok := seen[l]
		if !ok {
			id = int32(len(projected))
			projected = append(projected, l)
			seen[l] = id
		}
		projID[i] = id
	}
	rep := make([]int, p.Count)
	for i := range rep {
		rep[i] = -1
	}
	for s := 0; s < pc.N; s++ {
		if c := p.Class[s]; rep[c] == -1 {
			rep[c] = s
		}
	}
	qc := &buchi.Compiled{
		N:       p.Count,
		Init:    buchi.StateID(p.Class[a.Init]),
		Final:   make([]bool, p.Count),
		Events:  a.Events,
		EdgeOff: make([]int32, p.Count+1),
	}
	// Quotient label ids are assigned in order of first use along the
	// canonical edge order, as Compile assigns them; qID maps a
	// projected entry to its id, -1 until used.
	qID := make([]int32, len(projected))
	for i := range qID {
		qID[i] = -1
	}
	var nLabels int32
	sc := derivePool.Get().(*deriveScratch)
	defer derivePool.Put(sc)
	row, to, lab := sc.row[:0], sc.to[:0], sc.lab[:0]
	for c, s := range rep {
		qc.EdgeOff[c] = int32(len(to))
		qc.Final[c] = pc.Final[s]
		row = row[:0]
		for e := pc.EdgeOff[s]; e < pc.EdgeOff[s+1]; e++ {
			id := projID[pc.EdgeLabel[e]]
			row = append(row, buchi.TaggedEdge{
				Edge: buchi.Edge{To: buchi.StateID(p.Class[pc.EdgeTo[e]]), Label: projected[id]},
				Tag:  id,
			})
		}
		kept := buchi.CanonicalTaggedEdges(row)
		for _, e := range kept {
			if qID[e.Tag] < 0 {
				qID[e.Tag] = nLabels
				nLabels++
			}
			to = append(to, int32(e.To))
			lab = append(lab, qID[e.Tag])
		}
		qc.MaxDeg = max(qc.MaxDeg, len(kept))
	}
	qc.EdgeOff[p.Count] = int32(len(to))
	if len(to) > 0 { // an edgeless quotient keeps nil arrays, as Compile leaves them
		qc.EdgeTo = append(make([]int32, 0, len(to)), to...)
		qc.EdgeLabel = append(make([]int32, 0, len(lab)), lab...)
		qc.Labels = make([]buchi.Label, nLabels)
		for id, q := range qID {
			if q >= 0 {
				qc.Labels[q] = projected[id]
			}
		}
	}
	sc.row, sc.to, sc.lab = row, to, lab
	q, err := buchi.ShellFromCompiled(qc)
	if err != nil {
		// The form was remapped from a valid parent form; a rejection
		// is a bug in this function, not bad input.
		panic("bisim: derived quotient failed validation: " + err.Error())
	}
	return q
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
	row     []buchi.TaggedEdge // one class representative's projected row
	to, lab []int32            // kept edges of all classes so far
}

var derivePool = sync.Pool{New: func() any { return new(deriveScratch) }}

// StorageStates returns the total number of partition entries held,
// a proxy for the storage cost §7.4 reports (~80% of the database
// size in the paper's measurement).
func (ps *ProjectionSet) StorageStates() int {
	seen := make(map[*Partition]bool)
	total := 0
	for _, p := range ps.parts {
		if !seen[p] {
			seen[p] = true
			total += len(p.Class)
		}
	}
	return total
}

// Subsets returns the precomputed event subsets in deterministic
// order, mainly for tests and diagnostics.
func (ps *ProjectionSet) Subsets() []vocab.Set {
	out := make([]vocab.Set, 0, len(ps.parts))
	for s := range ps.parts {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
