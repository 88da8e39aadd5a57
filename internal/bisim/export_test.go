package bisim

import (
	"sort"
	"strconv"
	"strings"

	"contractdb/internal/buchi"
)

// QuotientEdgeBudgetFactor exposes the production budget factor.
const QuotientEdgeBudgetFactor = quotientEdgeBudgetFactor

// HashCompiled exposes the production dedup hash.
var HashCompiled = hashCompiled

// SelectQuotients exposes the production quotient selection at an
// arbitrary budget and hash.
func (ps *ProjectionSet) SelectQuotients(budget int, hash func(*buchi.Compiled) uint64) ([]*buchi.Compiled, []QuotientRef) {
	return ps.selectQuotients(budget, hash)
}

// ReferenceSelection runs referenceSelection on ps.
func (ps *ProjectionSet) ReferenceSelection(budget int) ([]*buchi.Compiled, []QuotientRef) {
	return referenceSelection(ps, budget)
}

// referenceSelection is the quotient selection as first written: every
// precomputed subset derived, every quotient rendered as an exact
// string fingerprint for deduplication. It takes the budget as a
// parameter so the differential can sweep it.
func referenceSelection(ps *ProjectionSet, budget int) ([]*buchi.Compiled, []QuotientRef) {
	var (
		table []*buchi.Compiled
		refs  []QuotientRef
	)
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
			continue
		}
		qc := deriveQuotient(ps.Auto, *part, set).Compiled()
		key := referenceFingerprint(qc)
		idx, ok := dedup[key]
		if !ok {
			if used+qc.NumEdges() > budget {
				continue
			}
			idx = len(table)
			table = append(table, qc)
			dedup[key] = idx
			used += qc.NumEdges()
		}
		refs = append(refs, QuotientRef{Set: set, Table: idx})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Set < refs[j].Set })
	return table, refs
}

// referenceFingerprint is a full structural rendering, not a hash, so
// distinct automata can never collide.
func referenceFingerprint(c *buchi.Compiled) string {
	var b strings.Builder
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
