package bisim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

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
// quotient table. It reads only immutable state (the partitions and
// the parent's compiled form) and never touches the runtime quotient
// cache, so concurrent query-path materializations cannot influence
// the bytes: equal databases export equal snapshots regardless of
// query history.
func (ps *ProjectionSet) Export() ProjectionSnapshot {
	s := ProjectionSnapshot{MaxSubset: ps.MaxSubset, Parts: make([]ProjectionEntry, 0, len(ps.parts))}
	for set, p := range ps.parts {
		s.Parts = append(s.Parts, ProjectionEntry{Set: set, Class: append([]int(nil), p.Class...)})
	}
	sort.Slice(s.Parts, func(i, j int) bool { return s.Parts[i].Set < s.Parts[j].Set })
	ps.exportQuotients(&s)
	return s
}

func (ps *ProjectionSet) exportQuotients(s *ProjectionSnapshot) {
	if ps.Auto == nil || len(ps.parts) == 0 {
		return
	}
	pc := ps.Auto.Compiled()
	budget := quotientEdgeBudgetFactor * pc.NumEdges()
	// Bottom-up: smallest subsets first (ties by value). Queries cite
	// few events, so their relevant subsets are small; the budget goes
	// where the first queries land.
	sets := ps.Subsets()
	sort.Slice(sets, func(i, j int) bool {
		li, lj := sets[i].Len(), sets[j].Len()
		if li != lj {
			return li < lj
		}
		return sets[i] < sets[j]
	})
	dedup := make(map[string]int)
	used := 0
	for _, set := range sets {
		part := ps.parts[set]
		if part.Count == ps.Auto.NumStates() && set == ps.Auto.Events {
			continue // For serves the automaton itself; nothing to store
		}
		q := deriveQuotient(ps.Auto, *part, set)
		qc := q.Compiled() // adopted at derivation, not flattened
		key := compiledFingerprint(qc)
		idx, ok := dedup[key]
		if !ok {
			if used+qc.NumEdges() > budget {
				continue // keep scanning: later (larger) sets may still dedup
			}
			idx = len(s.QuotientTable)
			s.QuotientTable = append(s.QuotientTable, qc)
			dedup[key] = idx
			used += qc.NumEdges()
		}
		s.QuotientRefs = append(s.QuotientRefs, QuotientRef{Set: set, Table: idx})
	}
	sort.Slice(s.QuotientRefs, func(i, j int) bool { return s.QuotientRefs[i].Set < s.QuotientRefs[j].Set })
}

// compiledFingerprint is an exact structural encoding used to share
// identical quotients in the table; it is a full rendering, not a
// hash, so distinct automata can never collide.
func compiledFingerprint(c *buchi.Compiled) string {
	var b strings.Builder
	b.Grow(16 * (len(c.EdgeTo) + len(c.Labels) + c.N))
	b.WriteString(strconv.Itoa(c.N))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(c.Init)))
	b.WriteByte('|')
	for s, f := range c.Final {
		if f {
			b.WriteString(strconv.Itoa(s))
			b.WriteByte(',')
		}
	}
	b.WriteByte('|')
	for s := 0; s < c.N; s++ {
		for e := c.EdgeOff[s]; e < c.EdgeOff[s+1]; e++ {
			l := c.Labels[c.EdgeLabel[e]]
			b.WriteString(strconv.Itoa(s))
			b.WriteByte('>')
			b.WriteString(strconv.Itoa(int(c.EdgeTo[e])))
			b.WriteByte(':')
			b.WriteString(strconv.FormatUint(uint64(l.Pos), 16))
			b.WriteByte('/')
			b.WriteString(strconv.FormatUint(uint64(l.Neg), 16))
			b.WriteByte(';')
		}
	}
	return b.String()
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
	for _, entry := range s.Parts {
		if len(entry.Class) != auto.NumStates() {
			return nil, fmt.Errorf("bisim: partition for %s has %d entries, automaton has %d states",
				entry.Set, len(entry.Class), auto.NumStates())
		}
		if _, dup := ps.parts[entry.Set]; dup {
			return nil, fmt.Errorf("bisim: snapshot has duplicate partition for %s", entry.Set)
		}
		p := normalize(entry.Class)
		key := p.Key()
		shared, ok := dedup[key]
		if !ok {
			cp := p
			shared = &cp
			dedup[key] = shared
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
