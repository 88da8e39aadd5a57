package prefilter

import (
	"contractdb/internal/bitset"
	"contractdb/internal/buchi"
)

// CandidatesExact evaluates the *complete* pruning condition of
// §4.1.1: for every final state of the query automaton it enumerates
// all simple prefixes from the initial state and all simple cycles
// through the state, and takes
//
//	⋃_t ( ⋃_paths ⋂_labels S(λ) )  ∩  ( ⋃_cycles ⋂_labels S(λ) ).
//
// The paper implements the cheaper approximation (Candidates) and
// notes it "has nearly the same number of false positives as the
// complete pruning conditions"; this method exists to reproduce that
// comparison (see the ablation benchmarks and tests). Enumeration is
// exponential in the worst case, so it is budgeted: if the search
// exceeds maxSteps it falls back to the approximate condition.
//
// Both conditions are sound: the exact candidate set is a subset of
// the approximate one and a superset of the permitting set.
func (ix *Index) CandidatesExact(q *buchi.BA, maxSteps int) bitset.Set {
	if maxSteps <= 0 {
		maxSteps = 200_000
	}
	e := &exactEnum{ix: ix, q: q, budget: maxSteps, labelCache: map[buchi.Label]bitset.Set{}}
	comp, _ := q.SCCs()
	result := bitset.New(ix.n)
	paths := e.pathConditions()
	if e.budget <= 0 {
		return ix.Candidates(q)
	}
	for _, t := range q.FinalStates() {
		cyc := e.cycleCondition(t, comp)
		if e.budget <= 0 {
			return ix.Candidates(q)
		}
		cyc.IntersectWith(paths[t])
		result.UnionWith(cyc)
	}
	return result
}

type exactEnum struct {
	ix         *Index
	q          *buchi.BA
	budget     int
	labelCache map[buchi.Label]bitset.Set
}

func (e *exactEnum) s(l buchi.Label) bitset.Set {
	if cached, ok := e.labelCache[l]; ok {
		return cached
	}
	v := e.ix.S(l)
	e.labelCache[l] = v
	return v
}

// pathConditions enumerates every simple path from the initial state,
// accumulating for each state the union over paths of the
// intersection of S(λ) along the path.
func (e *exactEnum) pathConditions() []bitset.Set {
	out := make([]bitset.Set, e.q.NumStates())
	for i := range out {
		out[i] = bitset.New(e.ix.n)
	}
	onPath := make([]bool, e.q.NumStates())
	var dfs func(s buchi.StateID, current bitset.Set)
	dfs = func(s buchi.StateID, current bitset.Set) {
		if e.budget <= 0 {
			return
		}
		e.budget--
		out[s].UnionWith(current)
		onPath[s] = true
		for edge := range e.q.Edges(s) {
			if onPath[edge.To] {
				continue // keep the path simple
			}
			next := current.Intersect(e.s(edge.Label))
			if next.IsEmpty() {
				// No contract can supply this path's labels; extending
				// it cannot resurrect candidates.
				continue
			}
			dfs(edge.To, next)
		}
		onPath[s] = false
	}
	dfs(e.q.Init, bitset.All(e.ix.n))
	return out
}

// cycleCondition enumerates every simple cycle through t (within its
// strongly connected component) and unions the per-cycle label
// intersections.
func (e *exactEnum) cycleCondition(t buchi.StateID, comp []int) bitset.Set {
	result := bitset.New(e.ix.n)
	onPath := make([]bool, e.q.NumStates())
	var dfs func(s buchi.StateID, current bitset.Set)
	dfs = func(s buchi.StateID, current bitset.Set) {
		if e.budget <= 0 {
			return
		}
		e.budget--
		onPath[s] = true
		for edge := range e.q.Edges(s) {
			if comp[edge.To] != comp[t] {
				continue // cycles cannot leave the component
			}
			next := current.Intersect(e.s(edge.Label))
			if next.IsEmpty() {
				continue
			}
			if edge.To == t {
				result.UnionWith(next)
				continue
			}
			if !onPath[edge.To] {
				dfs(edge.To, next)
			}
		}
		onPath[s] = false
	}
	dfs(t, bitset.All(e.ix.n))
	return result
}
