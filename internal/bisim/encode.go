package bisim

import (
	"cmp"
	"fmt"
	"slices"

	"contractdb/internal/buchi"
	"contractdb/internal/vocab"
)

// ProjectionEntry is one serialized (event subset, partition table)
// row of a ProjectionSet.
type ProjectionEntry struct {
	Set   vocab.Set
	Class []int
}

// QuotientRef maps one event subset to an entry of the snapshot's
// deduplicated quotient table.
type QuotientRef struct {
	Set   vocab.Set
	Table int
}

// ProjectionSnapshot is the serializable form of a ProjectionSet: the
// per-subset partition tables, exactly the "list of bisimilar states"
// representation §5.2 proposes for storage. Entries are sorted by
// event subset so encoding is byte-deterministic (gob over the
// previous map form serialized in map iteration order).
//
// formatVersion 3 additionally carries materialized projection
// quotients in compiled CSR form, so a loaded database serves its
// first projected queries without building (or flattening) a single
// quotient. Quotients for different subsets rarely coincide (their
// labels are projected differently), and persisting all of them
// measures at ~12× the size of the source automata on the reference
// corpus — so the table is budgeted: subsets are visited bottom-up
// (smallest first, the ones real queries hit, since the relevant
// subset is the intersection of the query's few cited events with the
// contract's), identical quotients share one table entry, and the
// table stops growing once it holds quotientEdgeBudgetFactor× the
// parent automaton's compiled edges. Uncovered subsets derive their
// quotient on first use — from the parent's compiled form, still
// without flattening. v2 streams decode with both fields empty.
type ProjectionSnapshot struct {
	MaxSubset int
	Parts     []ProjectionEntry

	QuotientTable []*buchi.Compiled
	QuotientRefs  []QuotientRef
}

// quotientEdgeBudgetFactor bounds the persisted quotient table to this
// multiple of the parent automaton's compiled edge count. The bound
// trades snapshot bytes for first-query warmth; it does not affect
// answers or determinism (the bottom-up visit order is fixed).
const quotientEdgeBudgetFactor = 2

// Export captures the precomputed partitions and the budgeted
// quotient table, rendered from the set's export memo (see
// ExportFlat): the table is renumbered into the bottom-up visit order
// formatVersion 3 writes. The memo depends only on immutable state
// (the partitions and the parent's compiled form), never on the
// runtime quotient cache, so concurrent query-path materializations
// cannot influence the bytes: equal databases export equal snapshots
// regardless of query history. The returned slices alias the memo;
// treat them as read-only.
func (ps *ProjectionSet) Export() ProjectionSnapshot {
	f := ps.exportMemo()
	s := ProjectionSnapshot{MaxSubset: f.MaxSubset, Parts: make([]ProjectionEntry, len(f.PartRefs))}
	for i, ref := range f.PartRefs {
		s.Parts[i] = ProjectionEntry{Set: ref.Set, Class: f.PartTables[ref.Table].Class}
	}
	s.QuotientTable, s.QuotientRefs = renumberQuotients(f.QuotientTable, f.QuotientRefs, bottomUp)
	return s
}

// bottomUp orders event subsets smallest first, ties by value: the
// order the quotient budget is spent in.
func bottomUp(a, b vocab.Set) int {
	if c := cmp.Compare(a.Len(), b.Len()); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// renumberQuotients renumbers a quotient table by first occurrence
// when refs (sorted by subset) are visited in the given subset order.
// It returns the renumbered table and refs, still sorted by subset;
// table entries no ref cites are dropped.
func renumberQuotients(table []*buchi.Compiled, refs []QuotientRef, order func(a, b vocab.Set) int) ([]*buchi.Compiled, []QuotientRef) {
	if len(refs) == 0 {
		return nil, nil
	}
	visit := slices.Clone(refs)
	slices.SortFunc(visit, func(x, y QuotientRef) int { return order(x.Set, y.Set) })
	remap := make([]int, len(table))
	for i := range remap {
		remap[i] = -1
	}
	var out []*buchi.Compiled
	for _, ref := range visit {
		if remap[ref.Table] == -1 {
			remap[ref.Table] = len(out)
			out = append(out, table[ref.Table])
		}
	}
	renum := make([]QuotientRef, len(refs))
	for i, ref := range refs {
		renum[i] = QuotientRef{Set: ref.Set, Table: remap[ref.Table]}
	}
	return out, renum
}

// selectQuotients picks the quotients the snapshot persists: subsets
// are visited bottom-up (queries cite few events, so their relevant
// subsets are small and the budget goes where the first queries
// land), identical quotients share one table entry, and a new entry
// is admitted only while the table's edges stay within budget. The
// table comes back in visit order, the refs sorted by subset.
//
// Most subsets of a large contract are over budget, and their
// derivation would be thrown away. A quotient keeps at least one edge
// per distinct (class, target class) pair of its class
// representatives, because canonicalization only drops edges inside a
// target group; that bound needs the partition alone. A subset whose
// bound no longer fits is skipped underived unless the table holds an
// entry with as many states, the only kind it could share. Equal
// quotients are found by a hash bucket plus an exact compare; hash is
// a parameter so tests can force every quotient into one bucket.
func (ps *ProjectionSet) selectQuotients(budget int, hash func(*buchi.Compiled) uint64) ([]*buchi.Compiled, []QuotientRef) {
	if ps.Auto == nil || len(ps.parts) == 0 {
		return nil, nil
	}
	pc := ps.Auto.Compiled()
	sets := ps.Subsets()
	slices.SortFunc(sets, bottomUp)
	var (
		table   []*buchi.Compiled
		refs    []QuotientRef
		used    int
		buckets = make(map[uint64][]int)
		sizes   = make(map[int]int) // table entries per state count
		bounds  = make(map[*Partition]int)
	)
	for _, set := range sets {
		part := ps.parts[set]
		if part.Count == pc.N && set == ps.Auto.Events {
			continue // For serves the automaton itself; nothing to store
		}
		if sizes[part.Count] == 0 {
			lb, ok := bounds[part]
			if !ok {
				lb = edgeLowerBound(pc, part)
				bounds[part] = lb
			}
			if used+lb > budget {
				continue
			}
		}
		qc := deriveQuotient(ps.Auto, *part, set).Compiled() // adopted at derivation, not flattened
		h := hash(qc)
		idx := -1
		for _, i := range buckets[h] {
			if sameCompiled(table[i], qc) {
				idx = i
				break
			}
		}
		if idx < 0 {
			if used+qc.NumEdges() > budget {
				continue // keep scanning: later (larger) sets may still dedup
			}
			idx = len(table)
			table = append(table, qc)
			buckets[h] = append(buckets[h], idx)
			sizes[qc.N]++
			used += qc.NumEdges()
		}
		refs = append(refs, QuotientRef{Set: set, Table: idx})
	}
	slices.SortFunc(refs, func(x, y QuotientRef) int { return cmp.Compare(x.Set, y.Set) })
	return table, refs
}

// edgeLowerBound is the number of distinct (class, target class) pairs
// over the class representatives deriveQuotient reads (each class's
// first state): a lower bound on the derived quotient's edge count
// for any subset with this partition.
func edgeLowerBound(pc *buchi.Compiled, p *Partition) int {
	seen := make([]int, p.Count) // seen[t] == c+1: class c reaches t
	done := make([]bool, p.Count)
	n := 0
	for s := 0; s < pc.N; s++ {
		c := p.Class[s]
		if done[c] {
			continue
		}
		done[c] = true
		for e := pc.EdgeOff[s]; e < pc.EdgeOff[s+1]; e++ {
			if t := p.Class[pc.EdgeTo[e]]; seen[t] != c+1 {
				seen[t] = c + 1
				n++
			}
		}
	}
	return n
}

// hashCompiled hashes everything sameCompiled compares (FNV-1a over
// 64-bit words); it only buckets candidates for the exact compare.
func hashCompiled(c *buchi.Compiled) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(c.N))
	mix(uint64(c.Init))
	for s, f := range c.Final {
		if f {
			mix(uint64(s))
		}
	}
	for _, off := range c.EdgeOff {
		mix(uint64(off))
	}
	for e, to := range c.EdgeTo {
		l := c.Labels[c.EdgeLabel[e]]
		mix(uint64(to))
		mix(uint64(l.Pos))
		mix(uint64(l.Neg))
	}
	return h
}

// sameCompiled reports whether two quotients of one parent are the
// same automaton: state count, initial state, acceptance, and every
// edge's target and label in CSR order. Label ids may differ as long
// as the labels they name agree.
func sameCompiled(a, b *buchi.Compiled) bool {
	if a.N != b.N || a.Init != b.Init || !slices.Equal(a.Final, b.Final) ||
		!slices.Equal(a.EdgeOff, b.EdgeOff) || !slices.Equal(a.EdgeTo, b.EdgeTo) {
		return false
	}
	for e := range a.EdgeLabel {
		if a.Labels[a.EdgeLabel[e]] != b.Labels[b.EdgeLabel[e]] {
			return false
		}
	}
	return true
}

// ImportProjections rebuilds a ProjectionSet for auto from a
// snapshot. Partition tables identical across subsets are re-shared,
// and the persisted quotient table — when present — pre-populates the
// quotient cache with compiled-only shells over the persisted forms,
// as the query path derives them: adopted, not rebuilt.
func ImportProjections(auto *buchi.BA, s ProjectionSnapshot) (*ProjectionSet, error) {
	ps := &ProjectionSet{
		Auto:      auto,
		MaxSubset: s.MaxSubset,
		parts:     make(map[vocab.Set]*Partition, len(s.Parts)),
		quotients: make(map[vocab.Set]*buchi.BA),
	}
	for _, out := range auto.Out {
		for _, e := range out {
			ps.labelEvents = ps.labelEvents.Union(e.Label.Vars())
		}
	}
	dedup := make(map[string]*Partition)
	var key []byte
	for _, entry := range s.Parts {
		if len(entry.Class) != auto.NumStates() {
			return nil, fmt.Errorf("bisim: partition for %s has %d entries, automaton has %d states",
				entry.Set, len(entry.Class), auto.NumStates())
		}
		if _, dup := ps.parts[entry.Set]; dup {
			return nil, fmt.Errorf("bisim: snapshot has duplicate partition for %s", entry.Set)
		}
		p := normalize(entry.Class)
		key = p.appendKey(key[:0])
		shared, ok := dedup[string(key)]
		if !ok {
			cp := p
			shared = &cp
			dedup[string(key)] = shared
		}
		ps.parts[entry.Set] = shared
	}
	ps.PrecomputedSubsets = len(ps.parts)
	ps.DistinctPartitions = len(dedup)

	// Materialize the persisted quotient table. Entries shared by
	// several subsets become one BA, as the live cache would hold.
	tableBA := make([]*buchi.BA, len(s.QuotientTable))
	for _, ref := range s.QuotientRefs {
		if ref.Table < 0 || ref.Table >= len(s.QuotientTable) {
			return nil, fmt.Errorf("bisim: quotient for %s cites table entry %d of %d",
				ref.Set, ref.Table, len(s.QuotientTable))
		}
		part, ok := ps.parts[ref.Set]
		if !ok {
			return nil, fmt.Errorf("bisim: quotient for %s has no matching partition", ref.Set)
		}
		if _, dup := ps.quotients[ref.Set]; dup {
			return nil, fmt.Errorf("bisim: snapshot has duplicate quotient for %s", ref.Set)
		}
		q := tableBA[ref.Table]
		if q == nil {
			qc := s.QuotientTable[ref.Table]
			if qc == nil {
				return nil, fmt.Errorf("bisim: quotient table entry %d is empty", ref.Table)
			}
			var err error
			if q, err = buchi.ShellFromCompiled(qc); err != nil {
				return nil, fmt.Errorf("bisim: quotient table entry %d: %w", ref.Table, err)
			}
			if qc.Events != auto.Events {
				return nil, fmt.Errorf("bisim: quotient table entry %d has event set %v, automaton has %v",
					ref.Table, qc.Events, auto.Events)
			}
			tableBA[ref.Table] = q
		}
		if q.NumStates() != part.Count {
			return nil, fmt.Errorf("bisim: quotient for %s has %d states, its partition has %d classes",
				ref.Set, q.NumStates(), part.Count)
		}
		ps.quotients[ref.Set] = q
	}
	return ps, nil
}
